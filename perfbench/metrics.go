package main

import (
	"fmt"
)

// result is what one workload run produces: every metric of the catalog
// it could compute, plus the operation counts.
type result struct {
	attempted int
	failed    int
	values    map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// count adds a phase's operations to the totals.
func (r *result) count(p *phase) {
	r.attempted += p.ops()
	r.failed += p.failed
}

// need sets name to the q-quantile of xs, or fails when too few samples
// lie beyond it: the end-to-end metrics are never reported without them.
func (r *result) need(name string, xs []float64, q float64) error {
	v, ok := percentile(xs, q)
	if !ok {
		return fmt.Errorf("%s: %d samples are too few for the %g quantile", name, len(xs), q)
	}
	r.values[name] = v
	return nil
}

// opt sets name to the q-quantile of xs, or to 0 (with a diagnostic) when
// too few samples lie beyond it.
func (r *result) opt(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		report("%s: %d samples are too few for the %g quantile; reporting 0", name, len(xs), q)
		v = 0
	}
	r.values[name] = v
}

// solve fills the metrics shared by the solve workloads (fib, loop,
// chol) from their three phases: the sequential baseline and the 1-worker
// runtime, run in paired rounds (see paired), and the nproc-worker
// runtime. t1_over_seq is the median of the rounds' ratios. The nproc
// phase is the end-to-end one and the one whose counters the per-layer
// metrics divide.
func (r *result) solve(seq, t1 *phase, rounds []float64, tp *phase, nproc int) error {
	for _, p := range []*phase{seq, t1, tp} {
		r.count(p)
	}
	for _, e := range []error{
		r.need("seq_ms.p50", seq.ms, 0.5),
		r.need("t1_ms.p50", t1.ms, 0.5),
		r.need("tp_ms.p50", tp.ms, 0.5),
		r.need("t1_over_seq", rounds, 0.5),
	} {
		if e != nil {
			return e
		}
	}
	r.opt("tp_ms.p90", tp.ms, 0.9)
	r.opt("tp_ms.p99", tp.ms, 0.99)
	v := r.values
	v["capacity_rps"] = ratio(float64(tp.ops()), tp.wall.Seconds())
	v["speedup"] = ratio(v["seq_ms.p50"], v["tp_ms.p50"])
	v["sched_overhead_ms"] = v["tp_ms.p50"] - v["seq_ms.p50"]/float64(nproc)
	r.scheduler(tp)
	r.perTask(t1)
	return nil
}

// perTask sets the 1-worker cost per task: the 1-worker operation time
// (t1_ms.p50, already set) divided by the tasks one operation spawns.
func (r *result) perTask(t1 *phase) {
	v := r.values
	v["t1_ops"] = float64(t1.ops())
	v["t1_tasks_per_op"] = ratio(float64(t1.sched.Spawned), v["t1_ops"])
	v["ns_per_task"] = ratio(v["t1_ms.p50"]*1e6, v["t1_tasks_per_op"])
}

// scheduler sets the counter-derived metrics of phase p.
func (r *result) scheduler(p *phase) {
	v, s := r.values, p.sched
	ops := float64(p.ops())
	secs := p.wall.Seconds()
	v["ops"] = ops
	v["tasks"] = float64(s.Spawned)
	v["tasks_per_op"] = ratio(float64(s.Spawned), ops)
	v["allocs_per_task"] = ratio(float64(p.allocs), float64(s.Spawned))
	v["bytes_per_task"] = ratio(float64(p.bytes), float64(s.Spawned))
	v["allocs_per_op"] = ratio(float64(p.allocs), ops)
	v["gc_per_s"] = ratio(float64(p.gcs), secs)
	v["steal_requests"] = float64(s.StealRequests)
	v["steal_hit_ratio"] = ratio(float64(s.StealHits), float64(s.StealRequests))
	v["combines"] = float64(s.Combines)
	v["combine_served_per_pass"] = ratio(float64(s.CombineServed), float64(s.Combines))
	v["parks"] = float64(s.Parks)
	v["probes_per_park"] = ratio(float64(s.StealProbes), float64(s.Parks))
	v["epoch_skips_per_s"] = ratio(float64(s.EpochSkips), secs)
	v["parks_per_s"] = ratio(float64(s.Parks), secs)
	v["splits_per_op"] = ratio(float64(s.Splits), ops)
	v["split_tasks_per_op"] = ratio(float64(s.SplitTasks), ops)
	v["ready_releases_per_op"] = ratio(float64(s.ReadyReleases), ops)
}

// traced sets the tracing metrics: the span count and the overhead of
// tracing, which compares the traced and the untraced operations of the
// same phase (see tracer.op).
func (r *result) traced(tr *tracer, p *phase) {
	if tr == nil {
		return
	}
	var on, off []float64
	for i, t := range p.ms {
		if tr.op(i) != nil {
			on = append(on, t)
		} else {
			off = append(off, t)
		}
	}
	r.opt("untraced_ms.p50", off, 0.5)
	onP50, _ := percentile(on, 0.5)
	v := r.values
	v["spans"] = float64(len(tr.spans))
	if v["untraced_ms.p50"] > 0 {
		v["trace_overhead_pct"] = 100 * (onP50/v["untraced_ms.p50"] - 1)
	}
}
