package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"xkaapi"
)

// sloServer builds a test server whose brownout controller never ticks on
// its own (Tick = 1h), so tests drive evaluation windows deterministically
// through step().
func sloServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.SLO.Tick == 0 {
		cfg.SLO.Tick = time.Hour
	}
	s, ts := newTestServer(t, cfg)
	return s, ts.URL
}

// record feeds one evaluation window's worth of synthetic latencies and
// evaluates it.
func record(s *Server, ep *endpointStats, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		ep.latency.Record(d)
	}
	s.brow.step()
}

// TestBrownoutHysteresis walks the controller through a full episode: two
// violating windows enter degraded mode (one is not enough), /healthz
// flips to "degraded" with a reason naming the endpoint, and only three
// consecutive windows below 80% of the SLO — not the first good one —
// recover it.
func TestBrownoutHysteresis(t *testing.T) {
	s, url := sloServer(t, Config{SLO: SLO{FibP99: 20 * time.Millisecond}})

	healthz := func() string {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d, want 200 (degraded must stay routable)", resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	record(s, &s.fib, 50*time.Millisecond, 10) // one bad window: not yet
	if s.Degraded() {
		t.Fatal("degraded after a single violating window — no hysteresis")
	}
	record(s, &s.fib, 50*time.Millisecond, 10) // second consecutive: enter
	if !s.Degraded() {
		t.Fatal("two consecutive violating windows did not enter degraded mode")
	}
	if body := healthz(); !strings.HasPrefix(body, "degraded") || !strings.Contains(body, "fib") {
		t.Fatalf("degraded /healthz body = %q, want degraded + fib reason", body)
	}

	// Recovery needs brownoutExitTicks consecutive windows at <= 80% SLO.
	record(s, &s.fib, time.Millisecond, 10)
	record(s, &s.fib, time.Millisecond, 10)
	if !s.Degraded() {
		t.Fatal("recovered after only two good windows — exit hysteresis broken")
	}
	record(s, &s.fib, time.Millisecond, 10)
	if s.Degraded() {
		t.Fatal("three good windows did not recover the endpoint")
	}
	if body := healthz(); !strings.HasPrefix(body, "ok") {
		t.Fatalf("recovered /healthz body = %q, want ok", body)
	}
}

// TestBrownoutNearSLOHoldsState: a window between 80% and 100% of the SLO
// is neither a violation nor a recovery — the current mode holds and both
// streaks restart, so a load hovering at the threshold cannot flap.
func TestBrownoutNearSLOHoldsState(t *testing.T) {
	s, _ := sloServer(t, Config{SLO: SLO{FibP99: 20 * time.Millisecond}})
	record(s, &s.fib, 50*time.Millisecond, 10)
	record(s, &s.fib, 50*time.Millisecond, 10)
	if !s.Degraded() {
		t.Fatal("setup: not degraded")
	}
	for i := 0; i < 10; i++ {
		record(s, &s.fib, 18*time.Millisecond, 10) // 90% of SLO: dead band
	}
	if !s.Degraded() {
		t.Fatal("dead-band windows recovered the endpoint")
	}
}

// TestBrownoutShedsOversized: a degraded endpoint refuses requests above
// half its size cap with 503 + Retry-After before taking a budget slot,
// while small requests keep flowing; /stats counts the sheds.
func TestBrownoutShedsOversized(t *testing.T) {
	s, url := sloServer(t, Config{MaxFib: 30, SLO: SLO{FibP99: 20 * time.Millisecond}})
	s.brow.epFor("fib").degraded.Store(true)
	s.brow.degraded.Store(true)

	resp, err := http.Get(url + "/fib?n=20") // > 30/2: shed
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized request on degraded endpoint: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	resp, err = http.Get(url + "/fib?n=10") // <= 30/2: still served
	if err != nil {
		t.Fatal(err)
	}
	var rep reply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rep.OK {
		t.Fatalf("small request on degraded endpoint: status %d ok=%v, want 200 verified", resp.StatusCode, rep.OK)
	}

	if got := s.fib.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	sr := statsReply(t, url)
	if !sr.Degraded || sr.Endpoints["fib"].Shed != 1 {
		t.Fatalf("/stats degraded=%v fib.shed=%d, want true/1", sr.Degraded, sr.Endpoints["fib"].Shed)
	}
}

func statsReply(t *testing.T, url string) StatsReply {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestRetryAfterFromDrainRate: the advertised backoff is the queue depth
// over the observed grant rate, rounded up and clamped to [1, 30].
func TestRetryAfterFromDrainRate(t *testing.T) {
	q := newAdmitQueue(1, 8)
	cases := []struct {
		rate   float64
		queued int
		want   int
	}{
		{rate: 2, queued: 5, want: 3},     // ceil(6/2)
		{rate: 10, queued: 3, want: 1},    // ceil(4/10) -> floor 1
		{rate: 0.1, queued: 10, want: 30}, // ceil(11/0.1)=110 -> clamp 30
		{rate: 0, queued: 4, want: 1},     // no signal: the old default
	}
	for _, tc := range cases {
		q.mu.Lock()
		q.lastRate = tc.rate
		q.queued = tc.queued
		q.grants = 0
		q.winStart = time.Now()
		q.mu.Unlock()
		if got := q.retryAfterSecs(); got != tc.want {
			t.Fatalf("retryAfterSecs(rate=%v queued=%d) = %d, want %d",
				tc.rate, tc.queued, got, tc.want)
		}
	}
}

// TestPanicRetriesServeThrough: with task-panic injection armed and
// PanicRetries generous, every request must still answer a verified 200 —
// the 500s a panic would cause are absorbed by server-side resubmission,
// and /stats records the retries.
func TestPanicRetriesServeThrough(t *testing.T) {
	inj := xkaapi.NewChaosInjector(xkaapi.ChaosScenario{Seed: 11, TaskPanic: 0.01})
	rt := xkaapi.New(xkaapi.WithWorkers(4), xkaapi.WithoutPinning(), xkaapi.WithChaos(inj))
	s, ts := newTestServer(t, Config{Runtime: rt, PanicRetries: 25, Chaos: inj})
	for i := 0; i < 30; i++ {
		resp, err := http.Get(ts.URL + "/fib?n=8")
		if err != nil {
			t.Fatal(err)
		}
		var rep reply
		json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !rep.OK {
			t.Fatalf("request %d: status %d ok=%v error=%q — panic retries not absorbing failures",
				i, resp.StatusCode, rep.OK, rep.Error)
		}
	}
	retried := s.fib.panicRetried.Load()
	if retried == 0 {
		t.Fatal("1% panic rate across 30 fib trees never triggered a retry")
	}
	// Every retry follows a panic-failed attempt, whose task counters must
	// still reach the endpoint aggregates.
	if p := s.fib.taskPanicked.Load(); p == 0 {
		t.Fatalf("%d panic retries but task_panicked = 0: retried attempts' counters dropped", retried)
	}
	if c := inj.Counts(); c.TaskPanics == 0 {
		t.Fatalf("injector fired no task panics: %+v", c)
	}
}
