package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xkaapi"
	"xkaapi/server"
)

// loadReply mirrors the server's workload response body.
type loadReply struct {
	Endpoint string          `json:"endpoint"`
	N        int             `json:"n"`
	Result   int64           `json:"result"`
	Residual float64         `json:"residual"`
	OK       bool            `json:"ok"`
	Error    string          `json:"error"`
	Job      xkaapi.JobStats `json:"job"`
}

const (
	loadKindFib = iota
	loadKindLoop
	loadKindChol
	loadNumKinds
)

var loadKindNames = [loadNumKinds]string{"fib", "loop", "chol"}

// loadTally accumulates outcomes across clients. "drained" counts requests
// lost to a server shutting down mid-load (503 or connection errors),
// which only a graceful-drain exercise (-expect-drain) may produce: in a
// normal run they are unexpected errors — a crashed server must not look
// like a clean drain.
type loadTally struct {
	okBy      [loadNumKinds]atomic.Int64
	bad       atomic.Int64 // 200 with ok=false: wrong result
	unexpect  atomic.Int64 // any status/error outside the protocol
	drained   atomic.Int64 // 503 or network error while server drains
	retried   atomic.Int64 // 429s absorbed by retry
	cancelled atomic.Int64 // 504/499: per-request deadline hit

	mu       sync.Mutex
	firstUnx string // first unexpected outcome, for the summary
}

func (lt *loadTally) noteUnexpected(desc string) {
	lt.unexpect.Add(1)
	lt.mu.Lock()
	if lt.firstUnx == "" {
		lt.firstUnx = desc
	}
	lt.mu.Unlock()
}

// runLoad drives a running "xkserve serve" with a verified mixed workload
// and returns the process exit code.
func runLoad(args []string) int {
	fs := flag.NewFlagSet("xkserve load", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the serve instance")
	clients := fs.Int("clients", 8, "concurrent client goroutines")
	jobs := fs.Int("jobs", 60, "requests per client")
	fibN := fs.Int("fib", 22, "fib request size")
	loopN := fs.Int("loop", 200_000, "loop request iteration count")
	cholN := fs.Int("chol", 192, "cholesky request order")
	nb := fs.Int("nb", 64, "cholesky tile size")
	timeout := fs.Duration("timeout", 0, "per-request deadline sent to the server (0 = server default)")
	burst := fs.Int("burst", 0, "fire N simultaneous cholesky requests first (backpressure probe)")
	expectDrain := fs.Bool("expect-drain", false, "tolerate 503s/connection errors as a graceful mid-load server drain")
	expect429 := fs.Bool("expect-429", false, "fail unless the burst phase observed at least one 429")
	fibBurst := fs.Int("fib-burst", 0, "fire N simultaneous /fib requests with no retry (queued-admission SLO probe)")
	burstSLO := fs.Duration("burst-slo", 5*time.Second, "per-request completion SLO for -fib-burst")
	burstMinOK := fs.Float64("burst-min-ok", 0.9, "minimum fraction of -fib-burst requests that must answer 200 within the SLO")
	hotAffinity := fs.Int("hot-affinity", 0, "fire N simultaneous /loop requests all pinned to one shard (affinity=1), to drive cross-shard stealing on a sharded server")
	hotLoop := fs.Int("hot-loop", 1_000_000, "loop iteration count of each -hot-affinity request")
	expectShards := fs.Int("expect-shards", 0, "fail unless /stats reports exactly N shards, every shard executed tasks, and (with -hot-affinity) work migrated between shards")
	retries := fs.Int("retries", 0, "max retries of a 429, honoring the server's full Retry-After with jitter (0 = the legacy fast poll: unbounded retries at Retry-After/20)")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for the server to become healthy")
	fs.Parse(args)

	if !waitHealthy(*addr, *wait) {
		fmt.Fprintf(os.Stderr, "xkserve load: server at %s not healthy within %v\n", *addr, *wait)
		return 1
	}

	var lt loadTally
	observed429 := 0
	if *burst > 0 {
		observed429 = runBurst(*addr, *burst, *cholN, *nb, &lt)
		fmt.Printf("xkserve load: burst of %d simultaneous cholesky requests: %d rejected with 429\n",
			*burst, observed429)
		if *expect429 && observed429 == 0 {
			fmt.Fprintln(os.Stderr, "xkserve load: burst saw no 429 — backpressure not engaging")
			return 1
		}
	}

	if *fibBurst > 0 {
		if !runFibBurst(*addr, *fibBurst, *fibN, *burstSLO, *burstMinOK, &lt) {
			return 1
		}
	}

	if *hotAffinity > 0 {
		runHotAffinity(*addr, *hotAffinity, *hotLoop, *retries, &lt)
	}

	urls := [loadNumKinds]string{
		loadKindFib:  fmt.Sprintf("%s/fib?n=%d", *addr, *fibN),
		loadKindLoop: fmt.Sprintf("%s/loop?n=%d", *addr, *loopN),
		loadKindChol: fmt.Sprintf("%s/cholesky?n=%d&nb=%d&verify=1", *addr, *cholN, *nb),
	}
	if *timeout > 0 {
		for k := range urls {
			urls[k] += "&timeout=" + timeout.String()
		}
	}
	wantFib := server.FibSeq(*fibN)
	wantLoop := int64(*loopN) * int64(*loopN-1) / 2

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for j := 0; j < *jobs; j++ {
				kind := (client + j) % loadNumKinds
				if !doRequest(urls[kind], kind, wantFib, wantLoop, *expectDrain, *retries, &lt) {
					return // server draining or gone: stop this client
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := int64(0)
	fmt.Printf("xkserve load: %d clients x %d requests against %s\n", *clients, *jobs, *addr)
	for k, name := range loadKindNames {
		n := lt.okBy[k].Load()
		total += n
		fmt.Printf("  %-5s %6d ok\n", name, n)
	}
	fmt.Printf("  total %6d verified in %v (%.0f req/s), %d x 429 retried, %d cancelled, %d lost to drain\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		lt.retried.Load(), lt.cancelled.Load(), lt.drained.Load())

	switch {
	case lt.bad.Load() > 0:
		fmt.Fprintf(os.Stderr, "xkserve load: FAILED: %d wrong results\n", lt.bad.Load())
		return 1
	case lt.unexpect.Load() > 0:
		fmt.Fprintf(os.Stderr, "xkserve load: FAILED: %d unexpected errors (first: %s)\n",
			lt.unexpect.Load(), lt.firstUnx)
		return 1
	case total == 0 && lt.drained.Load() == 0:
		fmt.Fprintln(os.Stderr, "xkserve load: FAILED: no request completed")
		return 1
	}
	if *expectShards > 0 {
		if !checkShards(*addr, *expectShards, *hotAffinity > 0) {
			return 1
		}
	}
	fmt.Println("xkserve load: all completed requests verified")
	return 0
}

// runHotAffinity deliberately overloads one shard: n simultaneous /loop
// requests, every one pinned to the same shard with affinity=1. On a
// sharded server the pinned shard's inbox backlogs while its siblings
// idle, so the cross-shard steal path must migrate the queued roots over —
// visible afterwards as stolen_in/stolen_out in /stats. Responses are
// verified like any other /loop request (migration must not change
// results).
func runHotAffinity(addr string, n, loopN, retries int, lt *loadTally) {
	url := fmt.Sprintf("%s/loop?n=%d&affinity=1", addr, loopN)
	want := int64(loopN) * int64(loopN-1) / 2
	var wg sync.WaitGroup
	var release sync.WaitGroup
	release.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release.Wait() // one simultaneous wave onto one shard
			doRequest(url, loadKindLoop, 0, want, false, retries, lt)
		}()
	}
	release.Done()
	wg.Wait()
	fmt.Printf("xkserve load: hot-affinity wave: %d simultaneous /loop?n=%d requests pinned to one shard\n", n, loopN)
}

// shardStatsReply mirrors the per-shard entries of the server's /stats.
type shardStatsReply struct {
	Shard     int   `json:"shard"`
	Executed  int64 `json:"executed"`
	StolenIn  int64 `json:"stolen_in"`
	StolenOut int64 `json:"stolen_out"`
}

// checkShards fetches /stats and verifies the sharding actually engaged:
// the server reports exactly want shards, every shard executed tasks (the
// router spread the load), and — when a hot-affinity wave overloaded one
// shard — at least one root migrated between shards.
func checkShards(addr string, want int, wantSteals bool) bool {
	resp, err := http.Get(addr + "/stats")
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkserve load: FAILED: /stats: %v\n", err)
		return false
	}
	defer resp.Body.Close()
	var stats struct {
		Shards     int               `json:"shards"`
		ShardStats []shardStatsReply `json:"shard_stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		fmt.Fprintf(os.Stderr, "xkserve load: FAILED: /stats decode: %v\n", err)
		return false
	}
	if stats.Shards != want || len(stats.ShardStats) != want {
		fmt.Fprintf(os.Stderr, "xkserve load: FAILED: /stats reports %d shards (%d entries), want %d\n",
			stats.Shards, len(stats.ShardStats), want)
		return false
	}
	var stolen int64
	for _, ss := range stats.ShardStats {
		if ss.Executed == 0 {
			fmt.Fprintf(os.Stderr, "xkserve load: FAILED: shard %d executed no tasks — placement not spreading\n", ss.Shard)
			return false
		}
		stolen += ss.StolenIn
		fmt.Printf("  shard %d: executed=%d stolen_in=%d stolen_out=%d\n",
			ss.Shard, ss.Executed, ss.StolenIn, ss.StolenOut)
	}
	if wantSteals && stolen == 0 {
		fmt.Fprintln(os.Stderr, "xkserve load: FAILED: hot-affinity wave ran but no cross-shard steal was recorded")
		return false
	}
	fmt.Printf("xkserve load: sharding verified: %d shards all executing, %d cross-shard steals\n", want, stolen)
	return true
}

// runFibBurst is the queued-admission SLO probe: it fires n simultaneous
// /fib requests with NO retry — before the admission queue, anything past
// the in-flight budget came back as an instant 429 — and requires at least
// minOK of them to answer a verified 200 within slo. A queued server
// absorbs the whole burst (modulo its queue bound): waiting a few
// milliseconds for a slot converts would-be 429s into completed
// responses. The probe prints the latency spread so the budget and queue
// knobs are tuned against numbers, not guesses.
func runFibBurst(addr string, n, fibN int, slo time.Duration, minOK float64, lt *loadTally) bool {
	url := fmt.Sprintf("%s/fib?n=%d&timeout=%s", addr, fibN, slo)
	want := server.FibSeq(fibN)
	type burstOut struct {
		status  int
		ok      bool
		elapsed time.Duration
	}
	outs := make([]burstOut, n)
	var wg sync.WaitGroup
	var release sync.WaitGroup
	release.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release.Wait() // line everybody up for a genuinely simultaneous burst
			start := time.Now()
			resp, err := http.Get(url)
			if err != nil {
				outs[i] = burstOut{status: -1}
				return
			}
			var rep loadReply
			decodeOK := json.NewDecoder(resp.Body).Decode(&rep) == nil
			resp.Body.Close()
			outs[i] = burstOut{
				status:  resp.StatusCode,
				ok:      decodeOK && rep.OK && rep.Result == want,
				elapsed: time.Since(start),
			}
		}(i)
	}
	release.Done()
	wg.Wait()

	within, rejected, other := 0, 0, 0
	var durs []time.Duration
	for _, o := range outs {
		switch {
		case o.status == http.StatusOK && o.ok:
			durs = append(durs, o.elapsed)
			lt.okBy[loadKindFib].Add(1)
			if o.elapsed <= slo {
				within++
			}
		case o.status == http.StatusOK:
			lt.bad.Add(1)
		case o.status == http.StatusTooManyRequests:
			rejected++
		default:
			other++
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(q float64) time.Duration {
		if len(durs) == 0 {
			return 0
		}
		i := int(q * float64(len(durs)-1))
		return durs[i]
	}
	frac := float64(within) / float64(n)
	fmt.Printf("xkserve load: fib burst of %d simultaneous requests: %d ok within %v SLO (%.0f%%), %d x 429, %d other\n",
		n, within, slo, 100*frac, rejected, other)
	if len(durs) > 0 {
		fmt.Printf("  burst latency p50=%v p99=%v max=%v\n",
			pct(0.50).Round(time.Millisecond), pct(0.99).Round(time.Millisecond),
			durs[len(durs)-1].Round(time.Millisecond))
	}
	if frac < minOK {
		fmt.Fprintf(os.Stderr, "xkserve load: FAILED: fib burst completed %.0f%% within SLO, want >= %.0f%% — queued admission is not absorbing the burst\n",
			100*frac, 100*minOK)
		return false
	}
	return true
}

// waitHealthy polls /healthz until it answers 200 or the budget elapses.
func waitHealthy(addr string, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runBurst fires n simultaneous cholesky requests with no retry, counting
// 429s; 200s are verified like any other request. Every connection is dialed
// BEFORE the release gate drops: on a small machine the dials serialize over
// several milliseconds, long enough for early requests to vacate their
// admission slots before late ones arrive — which would let an over-capacity
// burst slip through without a single 429. Pre-dialing makes the burst
// simultaneous where it matters: at the server's admission gate.
func runBurst(addr string, n, cholN, nb int, lt *loadTally) int {
	path := fmt.Sprintf("/cholesky?n=%d&nb=%d", cholN, nb)
	host := strings.TrimPrefix(strings.TrimPrefix(addr, "http://"), "https://")
	var saw429 atomic.Int64
	var wg sync.WaitGroup
	var release sync.WaitGroup
	release.Add(1)
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", host)
		if err != nil {
			lt.noteUnexpected("burst dial: " + err.Error())
			continue
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			req, err := http.NewRequest(http.MethodGet, addr+path, nil)
			if err != nil {
				lt.noteUnexpected("burst: " + err.Error())
				return
			}
			release.Wait() // line everybody up for a genuinely simultaneous burst
			if err := req.Write(conn); err != nil {
				lt.noteUnexpected("burst write: " + err.Error())
				return
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), req)
			if err != nil {
				lt.noteUnexpected("burst: " + err.Error())
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				saw429.Add(1)
			case http.StatusOK:
				var rep loadReply
				if json.NewDecoder(resp.Body).Decode(&rep) != nil || !rep.OK {
					lt.bad.Add(1)
				} else {
					lt.okBy[loadKindChol].Add(1)
				}
			default:
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
				lt.noteUnexpected(fmt.Sprintf("burst: status %d: %s", resp.StatusCode, body))
			}
		}(conn)
	}
	release.Done()
	wg.Wait()
	return int(saw429.Load())
}

// doRequest performs one workload request, retrying 429s with the server's
// advertised backoff. With retries == 0 it polls fast and unbounded (the
// legacy behavior the pre-chaos phases are tuned to: Retry-After/20, up to
// 100 attempts); with retries > 0 it is a well-behaved client, honoring
// the full advertised Retry-After with jitter and giving up for good after
// that many 429s. It reports false when the server is draining (or gone)
// and the client should stop. Connection errors and 503s count as a
// graceful drain only when expectDrain is set (the SIGTERM exercise);
// otherwise a vanished server is an unexpected failure.
func doRequest(url string, kind int, wantFib, wantLoop int64, expectDrain bool, retries int, lt *loadTally) bool {
	noteDown := func(desc string) bool {
		if expectDrain {
			lt.drained.Add(1)
		} else {
			lt.noteUnexpected(desc)
		}
		return false
	}
	for attempt := 0; ; attempt++ {
		resp, err := http.Get(url)
		if err != nil {
			return noteDown("connection failed: " + err.Error())
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			return noteDown("response read failed: " + rerr.Error())
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var rep loadReply
			if json.Unmarshal(body, &rep) != nil || !rep.OK {
				lt.bad.Add(1)
				return true
			}
			switch kind {
			case loadKindFib:
				if rep.Result != wantFib {
					lt.bad.Add(1)
					return true
				}
			case loadKindLoop:
				if rep.Result != wantLoop {
					lt.bad.Add(1)
					return true
				}
			}
			lt.okBy[kind].Add(1)
			return true
		case http.StatusTooManyRequests:
			if retries > 0 {
				if attempt >= retries {
					lt.noteUnexpected(fmt.Sprintf("still 429 after %d Retry-After backoffs", retries))
					return true
				}
				lt.retried.Add(1)
				time.Sleep(jitteredRetryAfter(resp))
				continue
			}
			if attempt > 100 {
				lt.noteUnexpected("budget never freed after 100 retries")
				return true
			}
			lt.retried.Add(1)
			time.Sleep(retryAfter(resp))
		case http.StatusServiceUnavailable:
			return noteDown("503: " + string(body))
		case http.StatusGatewayTimeout, 499:
			lt.cancelled.Add(1)
			return true
		default:
			lt.noteUnexpected(fmt.Sprintf("status %d on %s: %.200s", resp.StatusCode, url, body))
			return true
		}
	}
}

// jitteredRetryAfter honors the server's full advertised Retry-After
// (default 1s when absent) with ±25% random jitter, so a burst of clients
// rejected together does not come back as a synchronized thundering herd
// exactly Retry-After seconds later.
func jitteredRetryAfter(resp *http.Response) time.Duration {
	d := time.Second
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	return d - d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// retryAfter honors the server's Retry-After header, scaled down so tests
// stay fast, with a floor to avoid a busy loop.
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second / 20 // 1s advertised -> 50ms polls
		}
	}
	return 50 * time.Millisecond
}
