package main

// metric is one named number the benchmark prints. The lists below are
// the single source of the names, units and directions; BENCHMARK.json at
// the repository root repeats them (catalog_test.go keeps the two equal)
// and METRICS.md says what each one measures and what should move it.
//
// Every workload reports every metric, so the names carry no workload
// prefix: "fib.tp_ms.p50" is metric tp_ms.p50 of workload fib.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median a change may lose; end-to-end only
	base   string  // for a ratio: the metric holding its denominator
}

// endToEnd are the metrics a user of the runtime sees, measured with
// tracing off.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "tp_ms.p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "t1_over_seq", unit: "ratio", better: "lower", bound: 0.2, base: "seq_ms.p50"},
}

// perLayer are the per-layer metrics of the traced run. A metric that
// does not apply to a workload reads 0 there (METRICS.md lists where
// each applies).
var perLayer = []metric{
	// internal/core spawn path: slab, deque, worker, stat caches.
	{name: "ops", unit: "count", better: "higher"},
	{name: "tasks_per_op", unit: "count", better: "lower", base: "ops"},
	{name: "ns_per_task", unit: "ns", better: "lower", base: "t1_tasks_per_op"},
	{name: "t1_tasks_per_op", unit: "count", better: "lower", base: "t1_ops"},
	{name: "t1_ops", unit: "count", better: "higher"},
	{name: "allocs_per_task", unit: "count", better: "lower", base: "tasks"},
	{name: "bytes_per_task", unit: "B", better: "lower", base: "tasks"},
	{name: "tasks", unit: "count", better: "higher"},
	{name: "allocs_per_op", unit: "count", better: "lower", base: "ops"},
	{name: "gc_per_s", unit: "1/s", better: "lower"},
	{name: "submit_us.p50", unit: "us", better: "lower"},
	{name: "wait_ms.p50", unit: "ms", better: "lower"},
	{name: "tp_ms.p90", unit: "ms", better: "lower"},
	{name: "tp_ms.p99", unit: "ms", better: "lower"},
	{name: "seq_ms.p50", unit: "ms", better: "lower"},
	{name: "t1_ms.p50", unit: "ms", better: "lower"},

	// internal/core steal path: request aggregation, work epochs, park.
	{name: "steal_requests", unit: "count", better: "lower"},
	{name: "steal_hit_ratio", unit: "ratio", better: "higher", base: "steal_requests"},
	{name: "combines", unit: "count", better: "lower"},
	{name: "combine_served_per_pass", unit: "ratio", better: "higher", base: "combines"},
	{name: "parks", unit: "count", better: "lower"},
	{name: "probes_per_park", unit: "ratio", better: "lower", base: "parks"},
	{name: "epoch_skips_per_s", unit: "1/s", better: "lower"},
	{name: "parks_per_s", unit: "1/s", better: "lower"},

	// internal/core adaptive loop, kernels in internal/epx.
	{name: "splits_per_op", unit: "count", better: "lower", base: "ops"},
	{name: "split_tasks_per_op", unit: "count", better: "lower", base: "ops"},
	{name: "elemforce_ms.p50", unit: "ms", better: "lower"},
	{name: "repera_ms.p50", unit: "ms", better: "lower"},
	{name: "speedup", unit: "ratio", better: "higher", base: "tp_ms.p50"},

	// internal/core dataflow, kernels in internal/cholesky, blas, tile.
	{name: "ready_releases_per_op", unit: "count", better: "lower", base: "ops"},
	{name: "sched_overhead_ms", unit: "ms", better: "lower"},
	{name: "seq_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "gflops", unit: "GFLOP/s", better: "higher"},

	// server: admission, batching, latency histograms (via GET /stats).
	{name: "fib_ms.p90", unit: "ms", better: "lower"},
	{name: "loop_ms.p90", unit: "ms", better: "lower"},
	{name: "chol_ms.p90", unit: "ms", better: "lower"},
	{name: "server_ms.p99", unit: "ms", better: "lower"},
	{name: "queue_wait_ms.p99", unit: "ms", better: "lower"},
	{name: "requests", unit: "count", better: "higher"},
	{name: "batch_ratio", unit: "ratio", better: "higher", base: "requests"},
	{name: "batches", unit: "count", better: "higher"},
	{name: "mean_batch", unit: "count", better: "higher", base: "batches"},
	{name: "gen_lag_ms.p99", unit: "ms", better: "lower"},
	{name: "capacity_rps", unit: "1/s", better: "higher"},
	{name: "capacity_p99_ms", unit: "ms", better: "lower"},

	// the benchmark's own tracing.
	{name: "spans", unit: "count", better: "higher"},
	{name: "trace_overhead_pct", unit: "%", better: "lower", base: "untraced_ms.p50"},
	{name: "untraced_ms.p50", unit: "ms", better: "lower"},
}
