#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload fib --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, traces) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOFLAGS="-buildvcs=false -modcacherw"
export GOTOOLCHAIN=local
export GOPROXY=off

bin="$out/perfbench.$$"
(cd "$root/perfbench" && go build -o "$bin" .)
mv -f "$bin" "$out/perfbench"
exec "$out/perfbench" -out "$out" "$@"
