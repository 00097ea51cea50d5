package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi/internal/latency"
)

// SLO configures the brownout controller: per-endpoint p99 latency targets
// over the end-to-end request histogram (arrival to response, queue wait
// included). A zero target leaves that endpoint unsupervised; an all-zero
// SLO disables the controller entirely. See brownout for the control loop.
type SLO struct {
	// FibP99, LoopP99, CholP99 are the p99 targets per endpoint, measured
	// over each evaluation window (not the cumulative histogram, so the
	// controller reacts to the current regime, not the lifetime average).
	FibP99, LoopP99, CholP99 time.Duration
	// Tick is the evaluation period. Zero selects 250ms.
	Tick time.Duration
}

func (s SLO) enabled() bool { return s.FibP99 > 0 || s.LoopP99 > 0 || s.CholP99 > 0 }

const (
	// brownoutEnterTicks consecutive violating windows enter degraded mode;
	// brownoutExitTicks consecutive windows below brownoutExitNum/Den of the
	// SLO leave it. Entering fast and leaving slow (and only well below the
	// target) is the hysteresis that keeps the controller from flapping on a
	// load hovering at the threshold.
	brownoutEnterTicks = 2
	brownoutExitTicks  = 3
	brownoutExitNum    = 4
	brownoutExitDen    = 5
	// brownoutQueueNum/Den: queue saturation — the admission queue at or
	// above 3/4 of its bound — counts as an SLO violation for every
	// endpoint, so the controller reacts before the queue overflows into
	// 429s rather than after.
	brownoutQueueNum = 3
	brownoutQueueDen = 4
	// defaultBrownoutTick spaces the evaluation windows.
	defaultBrownoutTick = 250 * time.Millisecond
)

// browEndpoint is one endpoint's brownout state. Only the controller
// goroutine touches the window/streak fields; degraded, shed and lastP99
// are atomics read by handlers and /stats.
type browEndpoint struct {
	name  string
	stats *endpointStats
	slo   time.Duration
	maxN  int // endpoint size cap; degraded mode sheds n > maxN/2

	prev      *latency.Snapshot // previous tick's cumulative histogram
	bad, good int               // consecutive violating / recovered windows

	degraded atomic.Bool
	lastP99  atomic.Int64 // last window's p99, ns (for /healthz reasons)
}

// brownout is the graceful-degradation controller: a control loop that
// compares each supervised endpoint's windowed p99 (cumulative-histogram
// difference between ticks, see latency.Snapshot.Sub) and the admission
// queue's saturation against the configured SLO, and flips endpoints into
// degraded mode with hysteresis (brownoutEnterTicks in, brownoutExitTicks
// out at brownoutExitNum/Den of the target). Degraded endpoints shed
// oversized requests (503 + Retry-After, before a budget slot is taken);
// /healthz reports "degraded" with one reason line per cause while any
// endpoint is degraded.
type brownout struct {
	srv  *Server
	tick time.Duration
	eps  []*browEndpoint

	degraded atomic.Bool // any endpoint degraded (the /healthz headline)

	mu      sync.Mutex
	reasons []string // one line per active cause, for /healthz and /stats

	stop chan struct{}
	done chan struct{}
}

func newBrownout(s *Server, cfg SLO) *brownout {
	b := &brownout{
		srv:  s,
		tick: cfg.Tick,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if b.tick <= 0 {
		b.tick = defaultBrownoutTick
	}
	add := func(name string, ep *endpointStats, slo time.Duration, maxN int) {
		if slo <= 0 {
			return
		}
		b.eps = append(b.eps, &browEndpoint{
			name: name, stats: ep, slo: slo, maxN: maxN,
			prev: &latency.Snapshot{},
		})
	}
	add("fib", &s.fib, cfg.FibP99, s.maxFib)
	add("loop", &s.loop, cfg.LoopP99, s.maxLoop)
	add("cholesky", &s.chol, cfg.CholP99, s.maxChol)
	go b.loop()
	return b
}

func (b *brownout) loop() {
	defer close(b.done)
	t := time.NewTicker(b.tick)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.step()
		}
	}
}

func (b *brownout) close() {
	close(b.stop)
	<-b.done
}

// step evaluates one window. Split from the ticker loop so tests drive the
// controller deterministically, without real time.
func (b *brownout) step() {
	queueSat := false
	if qcap := b.srv.queueCap; qcap > 0 {
		queueSat = b.srv.adq.depth()*brownoutQueueDen >= qcap*brownoutQueueNum
	}
	var reasons []string
	any := false
	for _, e := range b.eps {
		snap := e.stats.latency.Snapshot()
		win := snap.Sub(e.prev)
		e.prev = snap
		p99 := win.Quantile(0.99)
		e.lastP99.Store(p99.Nanoseconds())

		// Queue saturation violates every endpoint's SLO: shedding one
		// endpoint while the shared queue drowns would be no brownout at
		// all. An empty window is evidence of recovery (no traffic, no
		// violation), not grounds to hold state forever.
		bad := queueSat || (win.Total > 0 && p99 > e.slo)
		good := !queueSat &&
			(win.Total == 0 || p99*brownoutExitDen <= e.slo*brownoutExitNum)
		switch {
		case bad:
			e.good = 0
			if e.bad++; e.bad >= brownoutEnterTicks {
				e.degraded.Store(true)
			}
		case good:
			e.bad = 0
			if e.good++; e.good >= brownoutExitTicks {
				e.degraded.Store(false)
			}
		default:
			// Between the exit fraction and the SLO: hold the current mode,
			// restart both streaks.
			e.bad, e.good = 0, 0
		}
		if e.degraded.Load() {
			any = true
			reasons = append(reasons, fmt.Sprintf("%s: window p99 %v against SLO %v",
				e.name, p99.Round(time.Millisecond), e.slo))
		}
	}
	if queueSat && any {
		reasons = append(reasons, fmt.Sprintf("admission queue >= %d/%d full (depth %d of %d)",
			brownoutQueueNum, brownoutQueueDen, b.srv.adq.depth(), b.srv.queueCap))
	}
	b.degraded.Store(any)
	b.mu.Lock()
	b.reasons = reasons
	b.mu.Unlock()
}

// reasonLines returns the current causes, one per line (empty when healthy).
func (b *brownout) reasonLines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.reasons...)
}

func (b *brownout) reasonText() string { return strings.Join(b.reasonLines(), "\n") }

// epFor returns the named endpoint's brownout state, nil when that
// endpoint is unsupervised.
func (b *brownout) epFor(name string) *browEndpoint {
	for _, e := range b.eps {
		if e.name == name {
			return e
		}
	}
	return nil
}

// shed reports whether a degraded endpoint refuses this request for size:
// while browned out, requests above half the endpoint's cap are answered
// 503 before taking a budget slot, keeping the remaining capacity for the
// small requests that can still meet the SLO.
func (e *browEndpoint) shedOversized(n int) bool {
	if e == nil || !e.degraded.Load() || n*2 <= e.maxN {
		return false
	}
	e.stats.shed.Add(1)
	return true
}
