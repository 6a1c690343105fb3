#!/usr/bin/env bash
# Builds renuca-perf from this checkout's source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and any module cache live under
# .bench_build/ at the checkout root, so a run writes nothing outside the
# checkout. The first build compiles the standard library into that cache;
# later builds reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/renuca-perf" ./renuca-perf)
exec "$out/renuca-perf" "$@"
