// Command perfbench is the repository's benchmark: four workloads run
// against the public API — fork-join fib, the adaptive EPX loops, tiled
// dataflow Cholesky, and the in-process HTTP server — each checked on
// every operation and measured end to end (tracing off) or layer by layer
// (tracing on). METRICS.md documents every workload and metric.
//
//	bash perfbench/run.sh --workload fib --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the chosen mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// workload is one of the benchmark's workloads, built by its constructor
// (inputs from the seed, runtimes, warm-up operations — the set-up).
type workload interface {
	// run measures for about d and returns the metrics; with a non-nil
	// tracer it also records spans.
	run(d time.Duration, tr *tracer) (*result, error)
	// close drains and closes every runtime the workload built.
	close() error
}

var workloads = map[string]func(seed uint64, nproc int) (workload, error){
	"fib":   newFib,
	"loop":  newLoop,
	"chol":  newChol,
	"serve": newServe,
}

// setups is how many times a run builds its workload; setup_s is the
// median, and only the last build is measured.
const setups = 5

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: fib, loop, chol or serve")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end")
	out := flag.String("out", ".bench_build/perfbench", "directory for the trace file")
	flag.Parse()
	build, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Printf("workload %s seed %d seconds %d trace %d nproc %d GOMAXPROCS %d %s\n",
		*name, *seed, *seconds, *trace, nproc, runtime.GOMAXPROCS(0), runtime.Version())

	base := runtime.NumGoroutine()
	var w workload
	var setupS []float64
	for i := range setups {
		t0 := time.Now()
		var err error
		if w, err = build(*seed, nproc); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := errors.Join(w.close(), settled(base)); err != nil {
				return err
			}
		}
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, err := w.run(time.Duration(*seconds)*time.Second, tr)
	if err = errors.Join(err, w.close(), settled(base)); err != nil {
		return err
	}
	slices.Sort(setupS)
	res.values["setup_s"] = setupS[len(setupS)/2]

	if tr != nil {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans in %s\n", len(tr.spans), path)
	}
	return emit(res, *trace == 1)
}

// emit prints every metric the run computed, one per line, then the
// result line: the end-to-end metrics, or with traced the per-layer ones.
func emit(res *result, traced bool) error {
	for _, group := range [][]metric{endToEnd, perLayer} {
		for _, m := range group {
			if v, ok := res.values[m.name]; ok {
				line := fmt.Sprintf("%-26s %14.6g %s", m.name, v, m.unit)
				if m.base != "" {
					line += fmt.Sprintf("  (base %s = %.6g)", m.base, res.values[m.base])
				}
				fmt.Println(line)
			}
		}
	}
	fmt.Printf("attempted %d failed %d\n", res.attempted, res.failed)

	set := endToEnd
	if traced {
		set = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range set {
		metrics[m.name] = value{res.values[m.name], m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
