package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"xkaapi"
)

// Caps of the fuzzed server: tiny, so every accepted request is cheap.
const (
	fuzzMaxFib  = 12
	fuzzMaxLoop = 1000
	fuzzMaxChol = 32
)

// queryInvalid is the fuzz oracle for parameter validation, written from
// the documented contract rather than from the handlers' code: a request
// is a 400 iff a present n (or nb) is not a decimal integer in [0, cap],
// a present affinity (on /fib and /loop) is not a uint64, or a present
// timeout is not a positive Go duration; /cholesky additionally needs n
// and nb positive. An absent parameter takes its default, clamped to the
// cap.
func queryInvalid(path string, q url.Values) bool {
	badInt := func(name string, def, max int64) (int64, bool) {
		v := q.Get(name)
		if v == "" {
			return min(def, max), false
		}
		n, err := strconv.ParseInt(v, 10, 64)
		return n, err != nil || n < 0 || n > max
	}
	if v := q.Get("affinity"); v != "" {
		if _, err := strconv.ParseUint(v, 10, 64); err != nil && path != "/cholesky" {
			return true
		}
	}
	if v := q.Get("timeout"); v != "" {
		if d, err := time.ParseDuration(v); err != nil || d <= 0 {
			return true
		}
	}
	switch path {
	case "/fib":
		_, bad := badInt("n", 22, fuzzMaxFib)
		return bad
	case "/loop":
		_, bad := badInt("n", 200_000, fuzzMaxLoop)
		return bad
	}
	n, bad := badInt("n", 192, fuzzMaxChol)
	if bad {
		return true
	}
	nb, bad := badInt("nb", min(64, n), n)
	return bad || n == 0 || nb == 0
}

// FuzzServeQuery sends arbitrary raw query strings to every workload
// endpoint of a server with tiny caps. No input may panic the handler or
// answer 500; malformed and over-cap input is a 400 that consumes no
// budget admission; every 200 carries a result verified here, against the
// sequential recurrence, the closed form, or the Cholesky residual
// (/cholesky always runs with verify=1 first in its query).
//
// The seed corpus is committed under testdata/fuzz/FuzzServeQuery: absent,
// boundary, over-cap, negative, signed, repeated and malformed parameters.
func FuzzServeQuery(f *testing.F) {
	rt := xkaapi.New(xkaapi.WithWorkers(2), xkaapi.WithoutPinning())
	s := New(Config{Runtime: rt, Budget: 2, DefaultTimeout: 10 * time.Second,
		MaxFib: fuzzMaxFib, MaxLoop: fuzzMaxLoop, MaxChol: fuzzMaxChol})
	f.Cleanup(func() {
		s.Close()
		rt.Close()
	})
	eps := map[string]*endpointStats{"/fib": &s.fib, "/loop": &s.loop, "/cholesky": &s.chol}

	f.Fuzz(func(t *testing.T, raw string) {
		for path, ep := range eps {
			query := raw
			if path == "/cholesky" {
				query = "verify=1&" + raw
			}
			r := httptest.NewRequest("GET", path, nil)
			r.URL.RawQuery = query
			q := r.URL.Query()
			before := ep.requests.Load()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)

			invalid := queryInvalid(path, q)
			switch code := w.Code; {
			case invalid && code != http.StatusBadRequest:
				t.Fatalf("GET %s?%s: status %d, want 400 for invalid input", path, query, code)
			case !invalid && code == http.StatusBadRequest:
				t.Fatalf("GET %s?%s: 400 for valid input: %s", path, query, w.Body)
			case code == http.StatusBadRequest:
				if got := ep.requests.Load(); got != before {
					t.Fatalf("GET %s?%s: 400 consumed %d budget admissions", path, query, got-before)
				}
			case code == http.StatusOK:
				verifyFuzzReply(t, path, query, w.Body.Bytes())
			case code != http.StatusGatewayTimeout: // a fuzzed timeout may fire
				t.Fatalf("GET %s?%s: status %d: %s", path, query, code, w.Body)
			}
			if got := s.InFlight(); got != 0 {
				t.Fatalf("GET %s?%s: %d budget slots still held after the response", path, query, got)
			}
		}
	})
}

// verifyFuzzReply checks a 200 body independently of the handler's own
// verification.
func verifyFuzzReply(t *testing.T, path, query string, body []byte) {
	t.Helper()
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("GET %s?%s: 200 with undecodable body: %v", path, query, err)
	}
	if !rep.OK {
		t.Fatalf("GET %s?%s: 200 with ok=false: %s", path, query, body)
	}
	n, caps := rep.N, map[string]int{"/fib": fuzzMaxFib, "/loop": fuzzMaxLoop, "/cholesky": fuzzMaxChol}
	if n > caps[path] {
		t.Fatalf("GET %s?%s: served n=%d above the cap %d", path, query, n, caps[path])
	}
	var want int64
	switch path {
	case "/fib":
		want = FibSeq(n)
	case "/loop":
		want = int64(n) * int64(n-1) / 2
	case "/cholesky":
		if n < 1 || rep.NB < 1 || rep.NB > n || rep.Residual == nil {
			t.Fatalf("GET %s?%s: n=%d nb=%d: not a verified factorization: %s", path, query, n, rep.NB, body)
		}
		if res := float64(*rep.Residual); !(res < 1e-10) {
			t.Fatalf("GET %s?%s: residual %g, want < 1e-10", path, query, res)
		}
		return
	}
	if rep.Result == nil || *rep.Result != want {
		t.Fatalf("GET %s?%s: n=%d: want result %d: %s", path, query, n, want, body)
	}
}
