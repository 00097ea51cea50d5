// Package server is the X-Kaapi network front-end: an HTTP layer that maps
// requests onto runtime jobs, so the scheduler — not ad-hoc goroutines —
// owns scheduling, failure containment and cancellation for the whole
// request path.
//
// # Request → job mapping
//
// Every workload endpoint handles a request by submitting work through
// Runtime.SubmitCtx, bound to the request's context. The three paradigms
// of the paper are exposed as endpoints over one shared worker pool:
//
//	GET /fib?n=22                      fork-join recursion (Spawn/Sync)
//	GET /loop?n=200000                 adaptive parallel loop (the gomp/komp
//	                                   worksharing kernel on the adaptive
//	                                   foreach scheduler)
//	GET /cholesky?n=192&nb=64&verify=1 tile Cholesky as dataflow tasks
//	GET /healthz                       liveness (503 while draining; body
//	                                   "degraded" + reasons under brownout)
//	GET /stats                         per-endpoint and scheduler counters
//
// Because the job carries the request context, both per-request deadlines
// (a timeout=DURATION query parameter, or the server's default) and client
// disconnects cancel the job through the runtime's machinery: remaining
// tasks are skipped eagerly at spawn (or at execution for tasks already
// enqueued), bookkeeping drains, and the pool moves on.
//
// Per-job outcome counters (core.Job.Stats: Executed, Cancelled, Panicked)
// are returned in every response and aggregated per endpoint, giving the
// per-request attribution a multi-tenant service needs on top of the
// pool-global scheduler counters.
//
// # Admission pipeline: queue → submit
//
// Admission is a pipeline, not a gate. Every admitted request becomes
// exactly one job: one SubmitCtx, a fraction of a microsecond, and no
// request ever waits for a neighbour to share it. The server holds a
// bounded budget of in-flight jobs (Config.Budget, default 2x the worker
// count) fronted by a bounded FIFO admission queue (Config.QueueDepth,
// default 4x the budget):
//
//  1. A request that finds a free budget slot is admitted immediately.
//  2. Otherwise it joins the queue and waits under its own deadline.
//     Slots are handed to waiters strictly FIFO as running requests
//     finish. Time spent queued counts against the request's deadline —
//     queueing narrows, never widens, the SLO.
//  3. Only when the queue itself is full does the server answer
//     429 Too Many Requests with a Retry-After header. Backpressure is
//     still applied at admission, before any work reaches the pool, so an
//     over-capacity burst cannot queue unbounded work — but a burst that
//     fits the queue now completes instead of bouncing.
//
// A request whose deadline fires while queued gets 504; one whose client
// disconnects while queued gets 499, and its queue slot is abandoned (an
// abandoned waiter granted a slot concurrently passes the slot straight
// to the next live waiter — slots never leak). /healthz and /stats bypass
// admission entirely. QueueDepth < 0 disables the queue and restores the
// instant-429 behaviour.
//
// # Status taxonomy
//
// Terminal outcomes are attributed precisely, using the request's own
// context to distinguish who cancelled:
//
//	200  completed and verified
//	500  task panic (after Config.PanicRetries resubmissions, if any), or
//	     result failed verification
//	504  the request's deadline fired (queued or running)
//	499  the client disconnected (request context dead; queued or running)
//	503  server-initiated cancellation (Job.Cancel or drain: the job was
//	     cancelled but the request context is still alive), draining, or a
//	     degraded endpoint shedding an oversized request (Retry-After set)
//	429  admission queue full (Retry-After set)
//
// A server-side cancel is never misreported as a client disconnect: 499
// is reserved for requests whose own context died, and server-initiated
// cancellations are counted separately (server_cancelled in /stats).
//
// The Retry-After on 429s is derived, not hardcoded: the admission queue
// tracks its grant rate over a rotating one-second window, and advertises
// ceil((queued+1)/rate) seconds — how long the current backlog actually
// needs to drain — clamped to [1s, 30s], falling back to 1s before any
// grant has been observed.
//
// # Graceful drain
//
// StartDrain flips the server into draining mode: /healthz turns 503
// (load balancers stop routing), new workload requests are refused with
// 503, queued waiters are refused in the same critical section that stops
// grants — after StartDrain returns, no request can be admitted, with no
// race window — and requests already admitted run to completion. The
// intended shutdown sequence on SIGTERM (see cmd/xkserve serve) is
// StartDrain, then http.Server.Shutdown (waits for in-flight handlers,
// hence for their jobs), then Server.Close (stops the brownout controller),
// then Runtime.Wait — whose errors.Join drain reports every job failure
// unaccounted for by a handler — and finally Runtime.CloseErr. After that
// drain the scheduler counters must balance:
// Spawned == Executed + Cancelled.
//
// # Sharding
//
// Config.Shards > 1 (with Config.Runtime nil; or an externally built
// xkaapi.New(WithShards(n)) runtime) puts a sharded fleet behind the same
// endpoints: each request's job is placed on the least-loaded scheduler
// shard, and idle shards steal queued root jobs from loaded siblings, so
// one heavy endpoint cannot monopolize the pool's locality domain. The
// workload endpoints accept an affinity=KEY query parameter (a uint64)
// that pins the request's job to shard KEY mod shards — related requests
// (one client, one dataset) then share one shard's caches.
//
// On a sharded runtime /stats grows two fields:
//
//	"shards": 4,
//	"shard_stats": [
//	  {"shard": 0, "workers": 2, "inbox_len": 0, "live_roots": 1,
//	   "stolen_in": 3, "stolen_out": 0,
//	   "executed": 1234, "spawned": 1230, "cancelled": 0, "parks": 7,
//	   "unhealthy": false, "health_transitions": 2, "routed_around": 5},
//	  ...
//	]
//
// stolen_in/stolen_out count root jobs migrated between shards by
// cross-shard stealing; executed counts where tasks actually ran. Because
// migration moves execution but not accounting, spawned == executed +
// cancelled balances only on the fleet-level "scheduler" block, not per
// shard. shard_stats is omitted entirely when shards == 1, so consumers
// of the single-pool schema see an unchanged reply.
//
// # Health & degradation
//
// The server degrades deliberately instead of falling over, at two levels.
//
// Shard health (the runtime's supervisor, on sharded pools): workers
// publish a progress epoch, and a shard whose epoch freezes while its
// inbox holds work — every worker wedged, descheduled, or stuck — is
// marked unhealthy after a stall threshold (default 400ms, tunable via
// xkaapi.WithShardHealth). The router places new jobs elsewhere (pinned
// affinity jobs divert to the next healthy shard), siblings keep pulling
// the backlog over, and the shard is re-admitted as soon as it makes
// progress again or is drained and demonstrably responsive. /stats
// surfaces the episode per shard: "unhealthy" (live flag),
// "health_transitions" (flips in either direction, so one full
// trip-and-recover episode counts 2) and "routed_around" (jobs the router
// diverted away).
//
// Endpoint brownout (Config.SLO): a controller samples each supervised
// endpoint's latency histogram (arrival to response, so queue wait
// counts against the SLO) every SLO.Tick (default 250ms) and compares
// the windowed p99 — the delta between consecutive snapshots, not the
// lifetime quantile — against the endpoint's SLO, treating a saturated
// admission queue (depth at ≥ 3/4 of capacity) as a violation everywhere.
// Transitions are hysteretic so the controller cannot flap: two
// consecutive violating windows enter degradation, three consecutive
// windows at or below 80% of the SLO leave it, and windows between 80%
// and 100% are a dead band that holds the current state. Degraded mode
// only sheds: the server refuses the endpoint's oversized requests (size
// above half the endpoint's cap) with 503 + Retry-After before they take
// a budget slot, so the remaining capacity goes to small requests that
// can still meet the SLO. /healthz stays 200 but its body reports
// "degraded" with one reason line per violating endpoint — draining alone
// is 503 — and /stats mirrors the state ("degraded", "degraded_reasons",
// per-endpoint "shed").
//
// Config.PanicRetries bounds a third mechanism, aimed at transient
// crashes: a job that fails with a task panic is resubmitted up to N
// times while the request's context is still alive (a fresh job, and
// fresh tiles for /cholesky) before
// the panic is surfaced as a 500. Retries are counted per endpoint as
// "panic_retried".
//
// All of it is exercised by the fault-injection harness (internal/chaos):
// `xkserve serve -chaos stall+panic+latency+wedge:7 -slo 15ms
// -panic-retries 20` arms seeded task panics, worker stalls, handler
// delays and a wall-clock whole-shard wedge behind the scheduler's
// nil-check fast path, and the integration tier drives exactly that
// topology through a full degrade-and-recover episode.
//
// # Stats, latency and data races
//
// /stats reports queue_cap and the live queue_depth, the per-endpoint
// aggregates (atomics maintained from per-job stats, plus queued, 429,
// cancelled and server_cancelled counts; batches and batched always read
// 0 and remain only for schema compatibility), and two lock-free
// HDR-style histograms per endpoint (internal/latency): end-to-end
// request latency and queue wait, each summarized as
// count/mean/p50/p90/p99/max with ≤12.5% relative bucket error. Latency
// runs from the request's arrival at the handler, before admission, to
// its response status, so it includes queue wait. It covers every admitted
// request and every request that timed out or disconnected while queued
// (504/499); requests refused without waiting (400, 429, and 503 for shed
// or draining) are not in it. queue_wait is the queued part alone. The full
// scheduler counters ride along: every per-worker counter, task-path
// included, is a cache-line-padded atomic, so mid-flight reads are
// race-free and each value is a monotone lower bound of the true count.
// Operators can watch Executed advance while long jobs run; the exact
// balance Spawned == Executed + Cancelled holds once the pool drains,
// which the serve command verifies after its final drain.
//
// # Static gates
//
// Several of the invariants above are enforced at CI time, not just
// documented: `make lint` runs cmd/xkvet, the module's own analyzer
// suite (internal/analysis). taskctx rejects server kernels and task
// bodies that call context.Background/TODO or shadow the per-job context
// — the cancellation fan-out only works if bodies observe the context
// the job was given. hotpath keeps the files behind the lock-free
// claims (the deque, the worker scheduling loop, internal/latency) free
// of mutexes, channel operations, sleeps and fmt. jobfailsingleton
// pins the PanicError definition to internal/jobfail so the failure
// state machine stays singular, and atomicpad requires cache-line
// padding on atomics-bearing structs instantiated per-worker in slices.
// See internal/analysis for the conventions (//xk:hotpath, //xk:allow).
package server
