#!/bin/sh
# CI entry point, and the single source of truth for what CI runs (the
# GitHub workflow in .github/workflows/ci.yml just invokes this script).
#
# Tiers: static gates (gofmt, vet, the xkvet analyzer suite), tier-1
# verify (build + full test suite), the race tier over the
# concurrency-critical packages, a short fuzz tier, the gating benchmark allocation budgets
# (bench_gates.json via `make bench-gate`), the serve/load integration
# pipeline, and a non-gating benchmark tier that records the perf
# trajectory as a BENCH_<n>.json artifact. Mirrors `make check` (+ the
# bench tier).
set -eu

# Analyzer fixtures under internal/analysis/*/testdata hold deliberately
# bad code (that is the point of them) and are excluded from the gofmt
# gate, matching the Makefile's fmt-check.
echo "== gate: gofmt -l"
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== gate: go vet ./..."
go vet ./...

# The old shell grep tripwire for duplicate PanicError definitions is now
# the jobfailsingleton analyzer in internal/analysis, run by `make lint`.
# xkvet output also lands in a file so the GitHub workflow can lift the
# diagnostics into the job summary on failure.
XKVET_OUT="${TMPDIR:-/tmp}/xkvet.txt"
echo "== gate: xkvet analyzer suite (make lint)"
if make lint >"$XKVET_OUT" 2>&1; then
	cat "$XKVET_OUT"
else
	cat "$XKVET_OUT"
	echo "xkvet: analyzer violations (see above)" >&2
	exit 1
fi

echo "== tier-1: go build ./..."
go build ./...

echo "== tier-1: go test ./..."
go test ./...

echo "== race tier: make race"
make race

# The context-propagation stress drives the one shared failure machine from
# every direction at once — sibling panics, deadlines, external Cancels,
# healthy jobs — with bodies parked on Proc.Context().Done(); run it
# un-shortened under the race detector on top of the -short package tier.
echo "== race tier: context-propagation stress"
go test -race -run 'TestContextPropagationStress' -count=2 ./internal/core

# The spawn cut-off runs a child inline, in a descriptor-free virtual frame,
# once its worker already queues P tasks; at P > 1 that interleaves with
# stealing and frame materialization, so the cut-off tests and
# the failure tests (whose one-worker split the cut-off fixes) are raced
# under GOMAXPROCS 1 and 4: multi-worker cases run both time-sliced and
# truly parallel.
echo "== race tier: spawn cut-off + failure accounting at -cpu 1,4"
go test -race -cpu 1,4 -run 'TestSpawnCutoff|TestPanic|TestStatsCount' . ./internal/core

# The fleet tier races the sharded paths specifically: router placement,
# cross-shard stealing under deliberate imbalance, and the fleet-wide
# drain/submit-storm critical section.
echo "== race tier: fleet router + cross-shard steal stress"
go test -race -run 'TestFleet' -count=2 ./internal/core

# The chaos tier replays seeded fault injection under the race detector:
# the paradigm sweep over a chaotic shared pool, the wedged-shard
# supervision episode, and the server-side degradation paths (brownout
# hysteresis, panic retries serving through injected crashes). All seeds
# are fixed, so a failure here replays deterministically.
echo "== race tier: seeded chaos (fault injection, supervision, degradation)"
go test -race -count=1 ./internal/chaos
go test -race -count=1 \
	-run 'TestChaos|TestWedged|TestBrownout|TestPanicRetries|TestRetryAfter' \
	. ./internal/core ./server

# The fuzz tier mutates raw query strings against the workload endpoints
# for a short fixed time: no input may panic or answer 500, malformed and
# over-cap input must be a 400 that takes no budget slot, and every 200
# must carry a verified result. The committed seed corpus already ran in
# tier-1; this step explores beyond it.
echo "== fuzz tier: FuzzServeQuery (10s)"
go test -run '^$' -fuzz '^FuzzServeQuery$' -fuzztime 10s ./server

# The deque fuzz target runs byte-coded owner push/pop and thief steal
# sequences against a sequential model: owner LIFO, thief FIFO, exact size,
# and the fast slot holding the oldest queued task.
echo "== fuzz tier: FuzzDequeOps (10s)"
go test -run '^$' -fuzz '^FuzzDequeOps$' -fuzztime 10s ./internal/core

# The allocation gate is the one benchmark tier that fails the build: a
# fast fixed-iteration smoke (-benchtime=100x) whose allocs/op — stable in
# a container, unlike wall-clock — is enforced against the budgets in
# bench_gates.json. Timing drift only warns (and only against artifacts
# with a comparable measurement basis).
echo "== gate: benchmark allocation budgets (make bench-gate)"
make bench-gate

echo "== integration tier: xkserve serve + load over HTTP"
./integration.sh

echo "== bench tier (non-gating): make bench-json"
if make bench-json; then
	echo "bench tier OK"
else
	echo "bench tier FAILED (non-gating, continuing)" >&2
fi

# The delta table is also written to a file so the GitHub workflow can lift
# it into the job summary without invoking the target a second time. Write
# first, then cat: piping through tee would hide make's exit status (POSIX
# sh has no pipefail) and make the failure branch unreachable.
BENCH_DIFF_OUT="${TMPDIR:-/tmp}/bench-diff.md"
echo "== bench diff (non-gating): make bench-diff"
if make bench-diff >"$BENCH_DIFF_OUT" 2>&1; then
	cat "$BENCH_DIFF_OUT"
	echo "bench diff OK"
else
	cat "$BENCH_DIFF_OUT"
	echo "bench diff FAILED (non-gating, continuing)" >&2
fi

echo "CI OK"
