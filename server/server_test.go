package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xkaapi"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Runtime == nil {
		cfg.Runtime = xkaapi.New(xkaapi.WithWorkers(4), xkaapi.WithoutPinning())
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close() // waits for in-flight handlers
		s.Close()  // then stop the brownout controller
		if err := cfg.Runtime.CloseErr(); err != nil {
			t.Logf("runtime close: %v", err)
		}
	})
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// holdSlots takes n budget slots the way n in-flight jobs would.
func holdSlots(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if code, _, _ := s.adq.acquire(context.Background()); code != admitOK {
			t.Fatalf("holdSlots: acquire %d returned %v, want admitOK", i, code)
		}
	}
}

// TestEndpointsServeVerifiedJobs drives all three workload endpoints and
// checks each completes one verified job, with the outcomes attributed per
// endpoint in /stats.
func TestEndpointsServeVerifiedJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, q := range []string{
		"/fib?n=18",
		"/loop?n=100000",
		"/cholesky?n=128&nb=32&verify=1",
	} {
		var rep reply
		if code := getJSON(t, ts.URL+q, &rep); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", q, code)
		}
		if !rep.OK {
			t.Errorf("GET %s: ok=false (error=%q reply=%+v)", q, rep.Error, rep)
		}
		if rep.Job.Executed == 0 {
			t.Errorf("GET %s: job executed 0 tasks", q)
		}
		if rep.Job.Cancelled != 0 || rep.Job.Panicked != 0 {
			t.Errorf("GET %s: job stats %+v, want no cancels/panics", q, rep.Job)
		}
	}

	var st StatsReply
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /stats: status %d", code)
	}
	for _, ep := range []string{"fib", "loop", "cholesky"} {
		es := st.Endpoints[ep]
		if es.Requests != 1 || es.OK != 1 || es.TaskExecuted == 0 {
			t.Errorf("endpoint %s stats = %+v, want 1 ok request with executed tasks", ep, es)
		}
		if es.Latency.Count != 1 || es.Latency.P50NS <= 0 || es.Latency.P99NS < es.Latency.P50NS {
			t.Errorf("endpoint %s latency summary = %+v, want 1 recorded request with ordered quantiles",
				ep, es.Latency)
		}
	}
	if st.Scheduler.Spawned < 3 {
		t.Errorf("scheduler live stats report %d submitted roots, want >= 3", st.Scheduler.Spawned)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v (status %v)", err, resp)
	}
	resp.Body.Close()
}

// TestBackpressure429NoQueue checks the pre-queue behavior survives behind
// QueueDepth < 0: with the budget full and no queue, the next request is
// rejected instantly with 429 + Retry-After, then succeeds once a slot
// frees up.
func TestBackpressure429NoQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 2, QueueDepth: -1})

	holdSlots(t, s, 2)

	resp, err := http.Get(ts.URL + "/fib?n=10")
	if err != nil {
		t.Fatalf("GET /fib: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget GET /fib: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}

	// Free one slot: the endpoint serves again.
	s.release()
	var rep reply
	if code := getJSON(t, ts.URL+"/fib?n=10", &rep); code != http.StatusOK || !rep.OK {
		t.Fatalf("after release GET /fib: status %d ok=%v", code, rep.OK)
	}
	s.release()

	if got := s.fib.rejected.Load(); got != 1 {
		t.Errorf("fib rejected count = %d, want 1", got)
	}
	if s.fib.taskExecuted.Load() == 0 {
		t.Error("fib task_executed = 0 after a served request")
	}
}

// TestQueueAbsorbsBurst is the tentpole contract at test scale: a burst
// wider than the budget completes entirely with 200s because the overflow
// waits in the admission queue instead of being 429'd, and /stats reports
// the queue traffic. The test holds the only slot until the whole burst is
// parked, so every request queues however fast the jobs run.
func TestQueueAbsorbsBurst(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(2), xkaapi.WithoutPinning())
	s, ts := newTestServer(t, Config{Runtime: rt, Budget: 1}) // queue defaults to 4
	holdSlots(t, s, 1)

	const clients = 4 // the held slot + 4 queued: exactly at capacity
	codes := make(chan int, clients)
	for c := 0; c < clients; c++ {
		go func() {
			var rep reply
			resp, err := http.Get(ts.URL + "/fib?n=16")
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			if json.NewDecoder(resp.Body).Decode(&rep) != nil || !rep.OK {
				codes <- -2
				return
			}
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return s.QueueDepth() == clients })
	s.release()
	for i := 0; i < clients; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("burst request %d: got %d, want every request queued to a 200", i, code)
		}
	}
	if got := s.fib.ok.Load(); got != clients {
		t.Errorf("fib ok = %d, want %d", got, clients)
	}
	if s.fib.rejected.Load() != 0 {
		t.Errorf("fib rejected = %d, want 0 (queue must absorb the burst)", s.fib.rejected.Load())
	}
	if got := s.fib.queued.Load(); got != clients {
		t.Errorf("fib queued = %d, want %d: the whole burst should have waited in the queue", got, clients)
	}
	if qw := s.fib.queueWait.Summary(); qw.Count != s.fib.queued.Load() {
		t.Errorf("queue_wait count = %d, want %d (one sample per queued request)", qw.Count, s.fib.queued.Load())
	}
}

// TestLatencyIncludesQueueWait: the /stats latency histogram runs from
// arrival, before admission, so a request that waited in the admission
// queue reports at least that wait — the latency its client saw — and the
// brownout controller gating on it sees queueing too. An injected 100ms
// handler delay after admission makes the /cholesky request hold the only
// slot long enough that the /fib request behind it always queues.
func TestLatencyIncludesQueueWait(t *testing.T) {
	inj := xkaapi.NewChaosInjector(xkaapi.ChaosScenario{
		Seed: 1, HandlerDelay: xkaapi.ChaosPulse{Prob: 1, For: 100 * time.Millisecond}})
	s, ts := newTestServer(t, Config{Budget: 1, Chaos: inj})
	get := func(q string, out chan<- int) {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			out <- -1
			return
		}
		resp.Body.Close()
		out <- resp.StatusCode
	}
	chol, fib := make(chan int, 1), make(chan int, 1)
	go get("/cholesky?n=128&nb=32", chol) // slow: holds the only slot
	waitFor(t, 5*time.Second, func() bool { return s.InFlight() == 1 })
	go get("/fib?n=1", fib) // fast job behind a long queue wait
	if code := <-fib; code != http.StatusOK {
		t.Fatalf("GET /fib: status %d, want 200", code)
	}
	if code := <-chol; code != http.StatusOK {
		t.Fatalf("GET /cholesky: status %d, want 200", code)
	}
	if got := s.fib.queued.Load(); got != 1 {
		t.Fatalf("fib queued = %d, want 1: the request must wait behind the cholesky job", got)
	}
	lat, qw := s.fib.latency.Summary(), s.fib.queueWait.Summary()
	if lat.P50NS < qw.P50NS {
		t.Errorf("fib latency p50 %v < queue_wait p50 %v: latency must run from arrival",
			time.Duration(lat.P50NS), time.Duration(qw.P50NS))
	}
}

// TestQueuedDeadline504 checks a request whose deadline expires while it
// waits in the admission queue: 504, the budget slot is never held, and
// the wait is attributed to the queue (cancelled count, queue_wait sample,
// no admitted request) and still counted in the endpoint's latency.
func TestQueuedDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 1})
	holdSlots(t, s, 1)

	resp, err := http.Get(ts.URL + "/fib?n=10&timeout=40ms")
	if err != nil {
		t.Fatalf("GET /fib: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued GET /fib with 40ms deadline: status %d, want 504", resp.StatusCode)
	}
	if got := s.fib.requests.Load(); got != 0 {
		t.Errorf("fib requests = %d, want 0: an expired queued request must never be admitted", got)
	}
	if got := s.fib.cancelled.Load(); got != 1 {
		t.Errorf("fib cancelled = %d, want 1", got)
	}
	if got := s.fib.queued.Load(); got != 1 {
		t.Errorf("fib queued = %d, want 1", got)
	}
	lat, qw := s.fib.latency.Summary(), s.fib.queueWait.Summary()
	if lat.Count != 1 || lat.P50NS < qw.P50NS {
		t.Errorf("fib latency count %d p50 %v, want 1 sample of at least the queue wait %v",
			lat.Count, time.Duration(lat.P50NS), time.Duration(qw.P50NS))
	}
	if got := s.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1 (only the held slot; the 504'd request held none)", got)
	}
	s.release()
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after release, want 0", got)
	}
}

// TestQueuedClientDisconnect checks a client vanishing while queued: the
// waiter is abandoned (499 path), its queue position is skipped on the
// next release, the slot is never leaked, and the wait is counted in the
// endpoint's latency.
func TestQueuedClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 1})
	holdSlots(t, s, 1)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/fib?n=10", nil)
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait until the request is parked in the queue, then hang up.
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Error("disconnected client got a response, want a cancelled transport error")
	}
	// The server-side handler finishes asynchronously; wait for its verdict.
	waitFor(t, time.Second, func() bool { return s.fib.cancelled.Load() == 1 })
	if got := s.fib.requests.Load(); got != 0 {
		t.Errorf("fib requests = %d, want 0", got)
	}
	if got := s.fib.latency.Summary().Count; got != 1 {
		t.Errorf("fib latency count = %d, want 1: a wait that ended in a disconnect is still latency", got)
	}
	// The abandoned waiter must not absorb the next released slot.
	s.release()
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after release, want 0 (abandoned waiter must not hold the slot)", got)
	}
}

// TestQueueFull429 fills the budget and the queue and checks the next
// request is rejected with 429 + Retry-After, while the queued one is
// served once a slot frees up (FIFO handoff).
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 1, QueueDepth: 1})
	holdSlots(t, s, 1)

	queued := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/fib?n=10")
		if err != nil {
			queued <- -1
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 1 })

	resp, err := http.Get(ts.URL + "/fib?n=10")
	if err != nil {
		t.Fatalf("GET /fib: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full GET /fib: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := s.fib.rejected.Load(); got != 1 {
		t.Errorf("fib rejected = %d, want 1", got)
	}

	s.release() // hand the slot to the queued request
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request completed with %d, want 200 after FIFO handoff", code)
	}
}

// TestNoAdmissionAfterStartDrain closes the StartDrain/admit race: the
// draining flag and slot grants share one mutex, so once StartDrain
// returns, no acquire that began afterwards can be admitted — including
// after slots free up — and every waiter already queued is refused.
func TestNoAdmissionAfterStartDrain(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1), xkaapi.WithoutPinning())
	t.Cleanup(func() { rt.Close() })
	s := New(Config{Runtime: rt, Budget: 1})
	defer s.Close()

	holdSlots(t, s, 1)
	waiterCode := make(chan admitCode, 1)
	go func() {
		code, _, _ := s.adq.acquire(context.Background())
		waiterCode <- code
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 1 })

	s.StartDrain()
	if code := <-waiterCode; code != admitDraining {
		t.Errorf("queued waiter got %v at drain, want admitDraining", code)
	}
	if code, _, _ := s.adq.acquire(context.Background()); code != admitDraining {
		t.Errorf("post-drain acquire got %v, want admitDraining", code)
	}
	s.release() // the pre-drain job finishes; its slot must not admit anyone
	if code, _, _ := s.adq.acquire(context.Background()); code != admitDraining {
		t.Errorf("post-drain post-release acquire got %v, want admitDraining", code)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after drain and release, want 0", got)
	}
}

// TestDrainAdmitRaceHammer races many admitters against StartDrain under
// the race detector: any acquire that starts after StartDrain returned
// must be refused.
func TestDrainAdmitRaceHammer(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1), xkaapi.WithoutPinning())
	t.Cleanup(func() { rt.Close() })
	s := New(Config{Runtime: rt, Budget: 2})
	defer s.Close()

	var drained atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sawDrain := drained.Load()
				code, _, _ := s.adq.acquire(context.Background())
				if code == admitOK {
					if sawDrain {
						t.Error("request admitted after StartDrain returned")
					}
					s.release()
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.StartDrain()
	drained.Store(true)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := s.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after hammer drain, want 0", got)
	}
}

// TestZeroResultNotOmitted is the omitempty regression: /fib?n=0 and
// /loop?n=0 legitimately compute 0 and the JSON body must still carry the
// result field alongside ok=true.
func TestZeroResultNotOmitted(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, q := range []string{"/fib?n=0", "/loop?n=0"} {
		var raw map[string]json.RawMessage
		if code := getJSON(t, ts.URL+q, &raw); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", q, code)
		}
		res, present := raw["result"]
		if !present {
			t.Errorf("GET %s: zero result omitted from JSON body", q)
			continue
		}
		var v int64 = -1
		if err := json.Unmarshal(res, &v); err != nil || v != 0 {
			t.Errorf("GET %s: result = %s, want 0", q, res)
		}
		var ok bool
		if err := json.Unmarshal(raw["ok"], &ok); err != nil || !ok {
			t.Errorf("GET %s: ok = %s, want true", q, raw["ok"])
		}
	}
}

// TestCholeskyDefaultNBClamped is the tile-size regression: with no nb
// parameter and n smaller than the old default 64, the server must clamp
// the default to n instead of factoring with nb > n.
func TestCholeskyDefaultNBClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var rep reply
	if code := getJSON(t, ts.URL+"/cholesky?n=32&verify=1", &rep); code != http.StatusOK {
		t.Fatalf("GET /cholesky?n=32: status %d (error %q)", code, rep.Error)
	}
	if rep.NB != 32 {
		t.Errorf("default nb for n=32 = %d, want clamped to 32", rep.NB)
	}
	if !rep.OK || rep.Residual == nil {
		t.Errorf("clamped factorization not verified: ok=%v residual=%v", rep.OK, rep.Residual)
	}
	// Larger orders keep the old default.
	if code := getJSON(t, ts.URL+"/cholesky?n=128", &rep); code != http.StatusOK || rep.NB != 64 {
		t.Errorf("default nb for n=128 = %d (status %d), want 64", rep.NB, code)
	}
}

// TestServerCancelNotClientDisconnect checks the cancellation taxonomy: a
// job error of context.Canceled / xkaapi.ErrCanceled is a 499 client
// disconnect only when the request's own context died; a server-side
// cancellation with a live request context is 503 and counted separately.
func TestServerCancelNotClientDisconnect(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1), xkaapi.WithoutPinning())
	t.Cleanup(func() { rt.Close() })
	s := New(Config{Runtime: rt})
	defer s.Close()

	live := httptest.NewRequest("GET", "/fib?n=10", nil).Context()
	deadCtx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name   string
		reqCtx context.Context
		err    error
		status int
		client int64 // expected cancelled delta
		server int64 // expected server_cancelled delta
	}{
		{"job.Cancel, client live", live, xkaapi.ErrCanceled, http.StatusServiceUnavailable, 0, 1},
		{"drain-style cancel, client live", live, context.Canceled, http.StatusServiceUnavailable, 0, 1},
		{"client disconnect", deadCtx, context.Canceled, StatusClientClosedRequest, 1, 0},
		{"deadline", live, context.DeadlineExceeded, http.StatusGatewayTimeout, 1, 0},
	} {
		beforeClient := s.fib.cancelled.Load()
		beforeServer := s.fib.serverCancelled.Load()
		got := s.finish(&s.fib, time.Now(), tc.reqCtx, tc.err, false)
		if got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}
		if d := s.fib.cancelled.Load() - beforeClient; d != tc.client {
			t.Errorf("%s: cancelled delta %d, want %d", tc.name, d, tc.client)
		}
		if d := s.fib.serverCancelled.Load() - beforeServer; d != tc.server {
			t.Errorf("%s: server_cancelled delta %d, want %d", tc.name, d, tc.server)
		}
	}
}

// TestDeadlineCancelsCholesky submits a Cholesky factorization far larger
// than its deadline allows and checks the deadline actually stops the job:
// 504 status, and the job's (and endpoint's) Cancelled counters grow
// because remaining tile tasks were skipped.
func TestDeadlineCancelsCholesky(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var rep reply
	code := getJSON(t, ts.URL+"/cholesky?n=768&nb=32&timeout=2ms", &rep)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("GET /cholesky with 2ms deadline: status %d, want 504 (reply %+v)", code, rep)
	}
	if rep.Job.Cancelled == 0 {
		t.Errorf("deadline-exceeded job cancelled 0 tasks, want > 0 (job %+v)", rep.Job)
	}
	if s.chol.cancelled.Load() != 1 {
		t.Errorf("cholesky endpoint cancelled = %d, want 1", s.chol.cancelled.Load())
	}
	if s.chol.taskCancelled.Load() == 0 {
		t.Error("cholesky endpoint task_cancelled = 0, want > 0")
	}

	// The pool survives the cancelled job: a small request still completes.
	if code := getJSON(t, ts.URL+"/cholesky?n=64&nb=32&verify=1", &rep); code != http.StatusOK || !rep.OK {
		t.Fatalf("after cancel GET /cholesky: status %d ok=%v", code, rep.OK)
	}
}

// TestDrainRefusesNewWork checks drain semantics: after StartDrain the
// health check and the workload endpoints report 503, so load balancers
// stop routing and no new jobs are admitted.
func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	s.StartDrain()
	for _, q := range []string{"/healthz", "/fib?n=10"} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s while draining: status %d, want 503", q, resp.StatusCode)
		}
	}
	if !s.Draining() {
		t.Error("Draining() = false after StartDrain")
	}
}

// TestBadRequests checks parameter validation: over-cap sizes and malformed
// timeouts are rejected with 400 before touching the budget.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxFib: 30})

	for _, q := range []string{
		"/fib?n=31",
		"/fib?n=-1",
		"/fib?n=x",
		"/fib?timeout=bogus",
		"/loop?n=999999999999",
		"/cholesky?n=0",
	} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if n := s.fib.requests.Load() + s.loop.requests.Load() + s.chol.requests.Load(); n != 0 {
		t.Errorf("bad requests consumed %d budget admissions, want 0", n)
	}
}

// TestMixedBurstUnderBudget hammers the server with a concurrent mixed
// workload wider than the budget: every request must end as either a
// verified 200 or a clean 429, and once drained the per-endpoint
// accounting must add up. With the admission queue at its default depth
// the whole burst is expected to be absorbed.
func TestMixedBurstUnderBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 3})

	const clients = 12
	type outcome struct {
		code int
		ok   bool
	}
	results := make(chan outcome, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			q := []string{"/fib?n=16", "/loop?n=50000", "/cholesky?n=96&nb=32"}[c%3]
			resp, err := http.Get(ts.URL + q)
			if err != nil {
				results <- outcome{code: -1}
				return
			}
			defer resp.Body.Close()
			var rep reply
			ok := json.NewDecoder(resp.Body).Decode(&rep) == nil && rep.OK
			results <- outcome{code: resp.StatusCode, ok: ok}
		}(c)
	}
	served, rejected := 0, 0
	for i := 0; i < clients; i++ {
		r := <-results
		switch r.code {
		case http.StatusOK:
			if !r.ok {
				t.Error("200 response with ok=false")
			}
			served++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected status %d", r.code)
		}
	}
	if served == 0 {
		t.Error("no request served")
	}
	if served+rejected != clients {
		t.Errorf("served %d + rejected %d != %d clients", served, rejected, clients)
	}
	t.Logf("served=%d rejected=%d (budget %d, queue %d)", served, rejected, s.Budget(), s.QueueCap())

	if err := s.rt.Wait(); err != nil {
		t.Errorf("runtime drain after burst: %v", err)
	}
	var admitted, okCount int64
	for _, ep := range []*endpointStats{&s.fib, &s.loop, &s.chol} {
		admitted += ep.requests.Load()
		okCount += ep.ok.Load()
	}
	if admitted != int64(served) || okCount != int64(served) {
		t.Errorf("endpoint accounting: admitted=%d ok=%d, want both %d", admitted, okCount, served)
	}
}

// TestTimeoutParamCannotExceedCeiling checks the timeout query parameter
// only tightens the operator-configured default deadline: a client asking
// for a huge timeout still gets the server ceiling.
func TestTimeoutParamCannotExceedCeiling(t *testing.T) {
	rt := xkaapi.New(xkaapi.WithWorkers(1), xkaapi.WithoutPinning())
	t.Cleanup(func() { rt.Close() })
	s := New(Config{Runtime: rt, DefaultTimeout: 50 * time.Millisecond})
	defer s.Close()

	for _, tc := range []struct {
		query string
		max   time.Duration // deadline must be within [now, now+max]
	}{
		{"/fib?n=10&timeout=8760h", 50 * time.Millisecond}, // capped at ceiling
		{"/fib?n=10&timeout=10ms", 10 * time.Millisecond},  // tighter than ceiling: honored
		{"/fib?n=10", 50 * time.Millisecond},               // no param: ceiling
	} {
		r := httptest.NewRequest("GET", tc.query, nil)
		before := time.Now()
		ctx, cancel, err := s.requestCtx(r)
		if err != nil {
			t.Fatalf("requestCtx(%s): %v", tc.query, err)
		}
		dl, ok := ctx.Deadline()
		cancel()
		if !ok {
			t.Errorf("requestCtx(%s): no deadline, want one", tc.query)
			continue
		}
		if d := dl.Sub(before); d > tc.max+10*time.Millisecond {
			t.Errorf("requestCtx(%s): deadline in %v, want <= %v", tc.query, d, tc.max)
		}
	}
}

// TestStatsEndpointShape checks /stats is valid JSON with the fields the
// ops side keys on, including the queue and latency surfaces.
func TestStatsEndpointShape(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 7, QueueDepth: 9})

	var raw map[string]json.RawMessage
	if code := getJSON(t, ts.URL+"/stats", &raw); code != http.StatusOK {
		t.Fatalf("GET /stats: status %d", code)
	}
	for _, key := range []string{"workers", "budget", "in_flight", "queue_cap", "queue_depth",
		"draining", "endpoints", "scheduler"} {
		if _, present := raw[key]; !present {
			t.Errorf("/stats missing %q", key)
		}
	}
	var budget, queueCap int
	if err := json.Unmarshal(raw["budget"], &budget); err != nil || budget != 7 {
		t.Errorf("/stats budget = %v (%v), want 7", budget, err)
	}
	if err := json.Unmarshal(raw["queue_cap"], &queueCap); err != nil || queueCap != 9 {
		t.Errorf("/stats queue_cap = %v (%v), want 9", queueCap, err)
	}
	var eps map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["endpoints"], &eps); err != nil {
		t.Fatalf("/stats endpoints: %v", err)
	}
	for _, key := range []string{"latency", "queue_wait", "server_cancelled", "queued", "batched"} {
		if _, present := eps["fib"][key]; !present {
			t.Errorf("/stats endpoints.fib missing %q", key)
		}
	}
	var lat map[string]json.RawMessage
	if err := json.Unmarshal(eps["fib"]["latency"], &lat); err != nil {
		t.Fatalf("/stats endpoints.fib.latency: %v", err)
	}
	for _, key := range []string{"count", "p50_ns", "p90_ns", "p99_ns", "max_ns"} {
		if _, present := lat[key]; !present {
			t.Errorf("/stats endpoints.fib.latency missing %q", key)
		}
	}
	if s.InFlight() != 0 {
		t.Errorf("InFlight = %d at rest, want 0", s.InFlight())
	}
}

// waitFor polls cond until it holds or the deadline elapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
