package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi"
	"xkaapi/internal/cholesky"
	"xkaapi/internal/tile"
)

// fibCutoff is the subtree size above which fibTask consults the job
// context before descending. ctx.Err is a mutex-guarded read of the one
// shared job context, so the cutoff keeps it strictly off the fine-grain
// hot path: only the coarse nodes (a vanishing fraction of the tree) pay
// it, while a deadline still abandons a request within milliseconds.
const fibCutoff = 16

// fibTask is the paper's Fig. 1 fork-join recursion: one task per node.
// Deadline-aware: coarse nodes check the per-job context (cancelled by the
// request deadline, a client disconnect, or a sibling failure) and return
// early instead of expanding a subtree the response can no longer use;
// eager cancel at spawn prunes whatever was already enqueued.
func fibTask(p *xkaapi.Proc, r *int64, n int) {
	if n < 2 {
		*r = int64(n)
		return
	}
	if n >= fibCutoff && p.Context().Err() != nil {
		return // job dead: leave *r partial, the handler reports the error
	}
	var a, b int64
	p.Spawn(func(p *xkaapi.Proc) { fibTask(p, &a, n-1) })
	fibTask(p, &b, n-2)
	p.Sync()
	*r = a + b
}

// FibSeq is the sequential Fibonacci reference the /fib endpoint verifies
// its parallel result against. Exported so the load generator
// (cmd/xkserve load) checks responses against the same recurrence.
func FibSeq(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// shedOversized is the brownout controller's load-shedding gate: while the
// endpoint is degraded, requests above half its size cap are refused with
// 503 + Retry-After before a budget slot is taken — the remaining capacity
// goes to the small requests that can still meet the SLO. A no-op while
// the endpoint is healthy or unsupervised.
func (s *Server) shedOversized(name string, w http.ResponseWriter, n int) bool {
	if s.brow == nil || !s.brow.epFor(name).shedOversized(n) {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.adq.retryAfterSecs()))
	http.Error(w, "degraded: oversized request shed", http.StatusServiceUnavailable)
	return true
}

// affinityParam parses the optional affinity query parameter: a uint64 key
// pinning the request's job to one shard of a sharded runtime (see
// xkaapi.Runtime.SubmitAffinity). hasKey is false when the parameter is
// absent.
func affinityParam(r *http.Request) (key uint64, hasKey bool, err error) {
	v := r.URL.Query().Get("affinity")
	if v == "" {
		return 0, false, nil
	}
	key, perr := strconv.ParseUint(v, 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("bad affinity %q", v)
	}
	return key, true, nil
}

// submitSmall submits one small-job request body, honouring the affinity
// pin when the request carries one.
func (s *Server) submitSmall(ctx context.Context, key uint64, hasKey bool, fn func(*xkaapi.Proc)) *xkaapi.Job {
	if hasKey {
		return s.rt.SubmitAffinity(ctx, key, fn)
	}
	return s.rt.SubmitCtx(ctx, fn)
}

// smallJob builds the handler of a small-job endpoint, GET /fib?n=N or
// GET /loop?n=N: one job per request running kernel(n) (parameter n
// defaults to def and is capped at max), whose result is checked by
// verify before the response reports ok. An affinity=K parameter pins the
// job to shard K mod shards of a sharded runtime.
func (s *Server) smallJob(name string, ep *endpointStats, def, max int,
	kernel func(p *xkaapi.Proc, out *int64, n int), verify func(n int, res int64) bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		arrival := time.Now()
		n, err := intParam(r, "n", def, max)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key, hasKey, err := affinityParam(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ctx, cancel, err := s.requestCtx(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		defer cancel()
		if s.shedOversized(name, w, n) {
			return
		}
		if !s.admit(ep, w, ctx, arrival) {
			return
		}
		defer s.release()
		s.chaosDelay()

		var res int64
		var job *xkaapi.Job
		var jerr error
		start := time.Now()
		for attempt := 0; ; attempt++ {
			res = 0
			job = s.submitSmall(ctx, key, hasKey, func(p *xkaapi.Proc) { kernel(p, &res, n) })
			jerr = job.Wait()
			ep.addTasks(job.Stats())
			if !s.retryOnPanic(ctx, jerr, attempt) {
				break
			}
			ep.panicRetried.Add(1)
		}

		rep := reply{Endpoint: name, N: n, ElapsedNS: time.Since(start).Nanoseconds(), Job: job.Stats()}
		if jerr != nil {
			rep.Error = ErrorLine(jerr)
		} else {
			rep.Result = i64Ptr(res)
			rep.OK = verify(n, res)
			if !rep.OK {
				rep.Error = "result failed verification"
			}
		}
		writeJSON(w, s.finish(ep, arrival, r.Context(), jerr, rep.OK), rep)
	}
}

// loopKernel is the /loop kernel: the worksharing sum the gomp and komp
// comparators run (sum of [0, n)), hosted on the adaptive foreach of the
// shared pool — i.e. the komp mapping of "#pragma omp for". The result is
// verified against the closed form.
func loopKernel(p *xkaapi.Proc, out *int64, n int) {
	var sum atomic.Int64
	jctx := p.Context()
	xkaapi.Foreach(p, 0, n, func(_ *xkaapi.Proc, lo, hi int) {
		if jctx.Err() != nil {
			return
		}
		s := int64(0)
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		sum.Add(s)
	})
	*out = sum.Load()
}

// spdCache memoizes the SPD source matrices by order: generation is O(n²)
// per request otherwise, and every request for the same n factors the same
// input. The cache is bounded — beyond maxSPDCached distinct orders,
// requests generate without caching — so a client sweeping n cannot grow
// the server's memory without bound. The factorization itself always runs
// on a fresh tile copy (it is in-place).
const maxSPDCached = 8

var (
	spdMu    sync.Mutex
	spdCache = map[int]*tile.Dense{}
)

func spdSource(n int) *tile.Dense {
	spdMu.Lock()
	d, ok := spdCache[n]
	spdMu.Unlock()
	if ok {
		return d
	}
	d = tile.NewSPD(n, 42)
	spdMu.Lock()
	if len(spdCache) < maxSPDCached {
		spdCache[n] = d
	} else if cached, ok := spdCache[n]; ok {
		d = cached // lost a fill race for an already-cached order
	}
	spdMu.Unlock()
	return d
}

// handleCholesky serves GET /cholesky?n=N&nb=NB[&verify=1]: one dataflow
// job factoring a deterministic SPD matrix of order N in NB-sized tiles.
// The default tile size is clamped to the matrix order — /cholesky?n=32
// factors with nb=32, not the raw default 64. With verify=1 the factor is
// checked against the source via the ||LLᵀ-A||/||A|| residual (an O(n³)
// check, off by default).
func (s *Server) handleCholesky(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	n, err := intParam(r, "n", 192, s.maxChol)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nb, err := intParam(r, "nb", min(64, n), n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if n == 0 || nb == 0 {
		http.Error(w, "n and nb must be positive", http.StatusBadRequest)
		return
	}
	verify := r.URL.Query().Get("verify") == "1"
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	if s.shedOversized("cholesky", w, n) {
		return
	}
	if !s.admit(&s.chol, w, ctx, arrival) {
		return
	}
	defer s.release()
	s.chaosDelay()

	src := spdSource(n)
	start := time.Now()
	var m *tile.Tiled
	var job *xkaapi.Job
	var jerr error
	// The factorization is in-place, so each panic-retry attempt restarts
	// from a fresh tile copy. The retry decision looks at the raw job error,
	// not the kernel diagnostic: a panic-cancelled attempt can leave a
	// half-factored tile that reports a spurious non-SPD error.
	for attempt := 0; ; attempt++ {
		m = tile.FromDense(src, nb)
		var kernelErr func() error
		job, kernelErr = cholesky.SubmitKaapi(ctx, s.rt, m)
		raw := job.Wait()
		s.chol.addTasks(job.Stats())
		jerr = raw
		if ke := kernelErr(); ke != nil {
			jerr = ke // non-SPD diagnostic beats the generic job error
		}
		if !s.retryOnPanic(ctx, raw, attempt) {
			break
		}
		s.chol.panicRetried.Add(1)
	}
	elapsed := time.Since(start)

	rep := reply{
		Endpoint:  "cholesky",
		N:         n,
		NB:        nb,
		ElapsedNS: elapsed.Nanoseconds(),
		Job:       job.Stats(),
	}
	if jerr != nil {
		rep.Error = ErrorLine(jerr)
	} else {
		rep.Gflops = fltPtr(cholesky.Gflops(n, elapsed))
		rep.OK = true
		if verify {
			res := tile.CholeskyResidual(src, m)
			rep.Residual = fltPtr(res)
			rep.OK = res < 1e-10
			if !rep.OK {
				rep.Error = "residual failed verification"
			}
		}
	}
	writeJSON(w, s.finish(&s.chol, arrival, r.Context(), jerr, rep.OK), rep)
}

// ErrorLine trims an error (PanicErrors carry a full stack) to its first
// line, for JSON error fields and one-line logs.
func ErrorLine(err error) string {
	s := err.Error()
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
