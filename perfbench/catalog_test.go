package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, which declares
// the benchmark's workloads and metrics, equal to what the program runs
// and prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := slices.Sorted(maps.Keys(workloads)); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(group string, got []jsonMetric, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog %d", group, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			bound := 0.0
			if g.Bound != nil {
				bound = *g.Bound
			}
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || bound != m.bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v (bound %v), catalog %+v", group, i, g, bound, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
