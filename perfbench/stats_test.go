package main

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q       float64
		n       int
		ok      bool
		atValue float64
	}{
		{0.5, 19, false, 10},
		{0.5, 20, true, 10},
		{0.9, 99, false, 90},
		{0.9, 100, true, 90},
		{0.99, 999, false, 990},
		{0.99, 1000, true, 990},
		{0.5, 0, false, 0},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || v != c.atValue {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.atValue, c.ok)
		}
	}
}

func TestNeedFailsAndOptZeroesWithoutEnoughSamples(t *testing.T) {
	r := newResult()
	if err := r.need("tp_ms.p90", seq(99), 0.9); err == nil {
		t.Error("need accepted a p90 of 99 samples")
	}
	r.opt("fib_ms.p99", seq(500), 0.99)
	if v, ok := r.values["fib_ms.p99"]; !ok || v != 0 {
		t.Errorf("opt p99 of 500 samples = %v, %v; want 0, true", v, ok)
	}
}

func TestRatioOfZeroBaseIsZero(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v", got)
	}
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v", got)
	}
}

// isRatio reports whether a metric divides two measured quantities other
// than by time (rates per second carry their unit instead).
func isRatio(m metric) bool {
	if strings.HasSuffix(m.name, "_per_s") || m.unit == "1/s" {
		return false
	}
	return m.unit == "ratio" || m.unit == "%" || strings.Contains(m.name, "_per_") || m.name == "mean_batch"
}

func TestEveryRatioNamesItsBase(t *testing.T) {
	all := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		all[m.name] = true
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !isRatio(m) {
			continue
		}
		if m.base == "" {
			t.Errorf("%s is a ratio without a base", m.name)
		} else if !all[m.base] {
			t.Errorf("%s names base %q, which is not a metric", m.name, m.base)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{0, 100}}, 0},
		// [10,40] and [30,60] overlap: together they cover 50, not 60.
		{[]interval{{10, 40}, {30, 60}}, 50},
		// A child nested in another adds nothing; parts outside the
		// parent are clipped.
		{[]interval{{10, 60}, {20, 30}, {-5, 5}, {90, 120}}, 100 - 5 - 50 - 10},
		// Adjacent children cover their sum.
		{[]interval{{0, 50}, {50, 100}}, 0},
		{[]interval{{200, 300}}, 100},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", parent, c.kids, got, c.want)
		}
	}
}

func TestTracerSelfTimesFollowParents(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("serve.request", 1, -1, at(0), at(10))
	tr.add("loadgen.lag", 1, root, at(0), at(2))
	tr.add("server.servehttp", 1, root, at(3), at(9))
	self := tr.selfTimes()
	want := []int64{2e6, 2e6, 6e6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self %d ns, want %d", i, self[i], want[i])
		}
	}
	var off *tracer
	if off.op(0) != nil || tr.op(1) != nil || tr.op(2) != tr || off.add("x", 0, -1, at(0), at(1)) != -1 {
		t.Error("a nil tracer traced")
	}
}

func TestOpenLoopTimesFromDueNotSend(t *testing.T) {
	// The whole schedule is already 50ms overdue when the loop starts, as
	// if the generator had stalled: every request must carry the stall in
	// its latency, while its own service time stays short.
	const late = 50 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	samples := openLoop(time.Now().Add(-late), due, func(int) { time.Sleep(time.Millisecond) })
	for i, s := range samples {
		overdue := late - due[i]
		if s.latency() < overdue {
			t.Errorf("request %d: latency %v, want at least the %v it was overdue", i, s.latency(), overdue)
		}
		if s.lag() < overdue {
			t.Errorf("request %d: lag %v, want at least %v", i, s.lag(), overdue)
		}
		if service := s.end.Sub(s.start); service >= late {
			t.Errorf("request %d: send-to-end %v; the test needs it below %v", i, service, late)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poisson(rand.New(rand.NewPCG(7, 1)), 300, 10*time.Second)
	b := poisson(rand.New(rand.NewPCG(7, 1)), 300, 10*time.Second)
	c := poisson(rand.New(rand.NewPCG(8, 1)), 300, 10*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("one seed gave two schedules")
	}
	if len(a) == len(c) && a[len(a)-1] == c[len(c)-1] {
		t.Fatal("two seeds gave one schedule")
	}
	if n := len(a); n < 2700 || n > 3300 {
		t.Errorf("%d arrivals in 10s at 300/s", n)
	}
}
