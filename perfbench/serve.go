package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"xkaapi/internal/cholesky"
	"xkaapi/internal/tile"
	"xkaapi/server"
)

// The serve workload's traffic: a default server.New(Config{}) called
// in-process through ServeHTTP, so the numbers are this repository's
// admission, batching and scheduling, not the kernel's TCP stack.
const (
	serveFibN   = 18
	serveLoopN  = 200_000
	serveCholN  = 192
	serveCholNB = 64
	// serveRate is the open-loop arrival rate. It keeps the server far
	// from saturation even when the host is slow: at 300/s a 2-CPU host
	// under contention from its neighbours fell to ~400 req/s of capacity
	// and refused requests with 429 once budget and queue were full.
	serveRate = 100
	// serveCallers is the closed-loop client count. It stays below the
	// default budget plus queue (2×nproc + 4×budget = 20 at nproc 2), so
	// no request can be refused with 429 by construction.
	serveCallers = 16
	// serveBlock is how many single-caller requests run between two
	// inline computations of the same requests.
	serveBlock = 25
)

type kind int

const (
	kindFib kind = iota
	kindLoop
	kindChol
)

var kindPath = [...]string{
	kindFib:  fmt.Sprintf("/fib?n=%d", serveFibN),
	kindLoop: fmt.Sprintf("/loop?n=%d", serveLoopN),
	kindChol: fmt.Sprintf("/cholesky?n=%d&nb=%d", serveCholN, serveCholNB),
}

// drawKind picks a request type: 50% /fib, 35% /loop, 15% /cholesky.
func drawKind(rng *rand.Rand) kind {
	switch u := rng.IntN(100); {
	case u < 50:
		return kindFib
	case u < 85:
		return kindLoop
	default:
		return kindChol
	}
}

func drawMix(rng *rand.Rand, n int) []kind {
	mix := make([]kind, n)
	for i := range mix {
		mix[i] = drawKind(rng)
	}
	return mix
}

// poisson returns the due times of a Poisson arrival process of the given
// rate over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return due
		}
		due = append(due, t)
	}
}

// reqSample is one open-loop request: when it was due, when its goroutine
// started sending it, and when the response was complete.
type reqSample struct {
	due, start, end time.Time
}

// latency is the request's time from when it was due, so a generator
// that falls behind charges its lateness to the requests it delayed.
func (s reqSample) latency() time.Duration { return s.end.Sub(s.due) }

// lag is how late the generator sent the request.
func (s reqSample) lag() time.Duration { return s.start.Sub(s.due) }

// openLoop sends request i at origin+due[i], each on its own goroutine,
// whether or not earlier requests have completed, and returns once all
// have. The schedule is finite, which bounds the goroutines.
func openLoop(origin time.Time, due []time.Duration, do func(i int)) []reqSample {
	out := make([]reqSample, len(due))
	var wg sync.WaitGroup
	for i, off := range due {
		at := origin.Add(off)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			do(i)
			out[i] = reqSample{due: at, start: start, end: time.Now()}
		}()
	}
	wg.Wait()
	return out
}

// serveBench is the serving workload. The server built in setup serves
// the single-caller phase; the open-loop and closed-loop phases each get
// a fresh server, so that its /stats covers that phase alone.
type serveBench struct {
	seed    uint64
	nproc   int
	srv     *server.Server
	cholSrc *tile.Dense // the matrix /cholesky factors, for the inline baseline
}

func newServe(seed uint64, nproc int) (workload, error) {
	b := &serveBench{seed: seed, nproc: nproc, srv: server.New(server.Config{}),
		cholSrc: tile.NewSPD(serveCholN, 42)}
	rng := rand.New(rand.NewPCG(seed, 0x77))
	for _, k := range drawMix(rng, 40) {
		if err := check(request(b.srv, k), k); err != nil {
			b.close()
			return nil, fmt.Errorf("serve warm-up: %w", err)
		}
	}
	return b, nil
}

func request(srv *server.Server, k kind) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, kindPath[k], nil))
	return rec
}

// check verifies a response: status 200, ok:true, and for /fib and /loop
// the result against the closed form.
func check(rec *httptest.ResponseRecorder, k kind) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", kindPath[k], rec.Code, rec.Body.String())
	}
	var rep struct {
		OK     bool   `json:"ok"`
		Result *int64 `json:"result"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return fmt.Errorf("%s: %w", kindPath[k], err)
	}
	if !rep.OK {
		return fmt.Errorf("%s: ok false: %s", kindPath[k], rep.Error)
	}
	var want int64
	switch k {
	case kindFib:
		want = server.FibSeq(serveFibN)
	case kindLoop:
		want = int64(serveLoopN) * (serveLoopN - 1) / 2
	default:
		return nil
	}
	if rep.Result == nil || *rep.Result != want {
		return fmt.Errorf("%s: result %v, want %d", kindPath[k], rep.Result, want)
	}
	return nil
}

// inline computes a request's answer on the calling goroutine, with no
// server and no runtime: the sequential baseline of the same work.
func (b *serveBench) inline(k kind) (time.Duration, error) {
	t0 := time.Now()
	var got, want int64
	switch k {
	case kindFib:
		got, want = fibPlain(serveFibN), server.FibSeq(serveFibN)
	case kindLoop:
		for i := range serveLoopN {
			got += int64(i)
		}
		want = int64(serveLoopN) * (serveLoopN - 1) / 2
	default:
		if err := cholesky.Seq(tile.FromDense(b.cholSrc, serveCholNB)); err != nil {
			return time.Since(t0), fmt.Errorf("inline cholesky: %w", err)
		}
	}
	t := time.Since(t0)
	if got != want {
		return t, fmt.Errorf("inline %s: %d, want %d", kindPath[k], got, want)
	}
	return t, nil
}

// stats reads the server's GET /stats.
func stats(srv *server.Server) (server.StatsReply, error) {
	var st server.StatsReply
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}

// shutdown drains a server in the documented order: refuse new work, stop
// the collectors, then drain and close the runtime.
func shutdown(srv *server.Server) error {
	srv.StartDrain()
	srv.Close()
	return closeRuntime(srv.Runtime())
}

func (b *serveBench) run(d time.Duration, tr *tracer) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewPCG(b.seed, 0x73657276))

	if err := b.singlePhase(res, rng, d/5); err != nil {
		return nil, err
	}
	if err := b.openPhase(res, rng, 6*d/10, tr); err != nil {
		return nil, err
	}
	if err := b.closedPhase(res, d/5); err != nil {
		return nil, err
	}
	v := res.values
	v["speedup"] = ratio(v["seq_ms.p50"], v["tp_ms.p50"])
	v["sched_overhead_ms"] = v["tp_ms.p50"] - v["seq_ms.p50"]/float64(b.nproc)
	return res, nil
}

// kindShare is each request type's share of the mix.
var kindShare = [...]float64{kindFib: 0.50, kindLoop: 0.35, kindChol: 0.15}

// byKind splits request times by request type.
func byKind(ms []float64, kinds []kind) [][]float64 {
	out := make([][]float64, len(kindPath))
	for i, t := range ms {
		out[kinds[i]] = append(out[kinds[i]], t)
	}
	return out
}

// mixTime is the q-quantile time of a request of the nominal mix, built
// from each request type's own q-quantile: Σ share × quantile. A quantile
// of the pooled samples would sit on the boundary between two request
// types (the median between /fib and /loop, the p90 at the edge of the
// 15% /cholesky share) and jump between them from seed to seed.
func mixTime(ms []float64, kinds []kind, q float64) (float64, error) {
	var mix float64
	for k, ts := range byKind(ms, kinds) {
		v, ok := percentile(ts, q)
		if !ok {
			return 0, fmt.Errorf("%s: %d samples are too few for the %g quantile", kindPath[k], len(ts), q)
		}
		mix += kindShare[k] * v
	}
	return mix, nil
}

// singlePhase is the single-caller phase: one caller sends the mix to the
// set-up server, one request at a time, and after every block of
// serveBlock requests computes the same block inline. t1_ms.p50 and
// seq_ms.p50 are the two sides' mix times (see mixTime), t1_over_seq
// their ratio: what serving one request costs over computing it in place.
func (b *serveBench) singlePhase(res *result, rng *rand.Rand, d time.Duration) error {
	rt := b.srv.Runtime()
	runtime.GC()
	start := snapshot(rt)
	var c, seq phase
	var kinds []kind
	for time.Since(start.at) < d || c.ops() < 20*serveBlock {
		block := drawMix(rng, serveBlock)
		for _, k := range block {
			t0 := time.Now()
			rec := request(b.srv, k)
			t := time.Since(t0)
			c.record(t, check(rec, k))
		}
		for _, k := range block {
			seq.record(b.inline(k))
		}
		kinds = append(kinds, block...)
	}
	c.delta(start, snapshot(rt))
	if err := drained(rt); err != nil {
		return err
	}
	res.count(&c)
	res.count(&seq)
	t1ms, err1 := mixTime(c.ms, kinds, 0.5)
	seqms, err2 := mixTime(seq.ms, kinds, 0.5)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	v := res.values
	v["t1_ms.p50"], v["seq_ms.p50"] = t1ms, seqms
	v["t1_over_seq"] = ratio(t1ms, seqms)
	res.perTask(&c)
	return nil
}

// openPhase is phase (a): Poisson arrivals at serveRate on a fresh
// server, latency timed from each request's due time.
func (b *serveBench) openPhase(res *result, rng *rand.Rand, d time.Duration, tr *tracer) error {
	srv := server.New(server.Config{})
	due := poisson(rng, serveRate, d)
	mix := drawMix(rng, len(due))
	recs := make([]*httptest.ResponseRecorder, len(due))
	before := snapshot(srv.Runtime())
	samples := openLoop(time.Now(), due, func(i int) { recs[i] = request(srv, mix[i]) })
	after := snapshot(srv.Runtime())
	st, err := stats(srv)
	if err = errors.Join(err, shutdown(srv)); err != nil {
		return err
	}

	var p phase
	p.delta(before, after)
	var lags []float64
	for i, s := range samples {
		p.ms = append(p.ms, ms(s.latency()))
		lags = append(lags, ms(s.lag()))
		if err := check(recs[i], mix[i]); err != nil {
			p.failed++
			report("check failed: %v", err)
		}
		if t := tr.op(i); t != nil {
			root := t.add("serve.request", int64(i), -1, s.due, s.end)
			t.add("loadgen.lag", int64(i), root, s.due, s.start)
			t.add("server.servehttp", int64(i), root, s.start, s.end)
		}
	}
	res.count(&p)
	p50, err := mixTime(p.ms, mix, 0.5)
	if err != nil {
		return err
	}
	v := res.values
	v["tp_ms.p50"] = p50
	if v["tp_ms.p90"], err = mixTime(p.ms, mix, 0.9); err != nil {
		report("tp_ms.p90: %v; reporting 0", err)
	}
	res.opt("tp_ms.p99", p.ms, 0.99)
	res.scheduler(&p)
	res.opt("gen_lag_ms.p99", lags, 0.99)
	kinds := byKind(p.ms, mix)
	res.opt("fib_ms.p90", kinds[kindFib], 0.9)
	res.opt("loop_ms.p90", kinds[kindLoop], 0.9)
	res.opt("chol_ms.p90", kinds[kindChol], 0.9)

	var requests, batched, batches int64
	var serverP99, queueP99 int64
	for _, ep := range st.Endpoints {
		requests += ep.Requests
		batched += ep.Batched
		batches += ep.Batches
		// The mix's p99 is at most the largest per-endpoint p99.
		serverP99 = max(serverP99, ep.Latency.P99NS)
		queueP99 = max(queueP99, ep.QueueWait.P99NS)
	}
	v["requests"] = float64(requests)
	v["batches"] = float64(batches)
	v["batch_ratio"] = ratio(float64(batched), float64(requests))
	v["mean_batch"] = ratio(float64(batched), float64(batches))
	v["server_ms.p99"] = float64(serverP99) / 1e6
	v["queue_wait_ms.p99"] = float64(queueP99) / 1e6
	res.traced(tr, &p)
	return nil
}

// closedPhase is phase (b): serveCallers callers, each sending its next
// request when the previous one returns, on a fresh server.
func (b *serveBench) closedPhase(res *result, d time.Duration) error {
	srv := server.New(server.Config{})
	type sample struct {
		k   kind
		ms  float64
		rec *httptest.ResponseRecorder
	}
	per := make([][]sample, serveCallers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(b.seed, uint64(1000+c)))
			for time.Since(start) < d {
				k := drawKind(rng)
				t0 := time.Now()
				rec := request(srv, k)
				per[c] = append(per[c], sample{k, ms(time.Since(t0)), rec})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := shutdown(srv); err != nil {
		return err
	}
	var p phase
	ok := 0
	for _, ss := range per {
		for _, s := range ss {
			p.ms = append(p.ms, s.ms)
			if err := check(s.rec, s.k); err != nil {
				p.failed++
				report("check failed: %v", err)
				continue
			}
			ok++
		}
	}
	res.count(&p)
	res.values["capacity_rps"] = ratio(float64(ok), wall.Seconds())
	res.opt("capacity_p99_ms", p.ms, 0.99)
	return nil
}

func (b *serveBench) close() error { return shutdown(b.srv) }
