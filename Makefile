# Verification targets. `make check` is the full tier-1 + race gate; the
# parallel harness (internal/pool, the experiment Runner's fan-out) must
# stay race-clean, so the race detector is part of the standard gate, and
# renuca-lint enforces the determinism/stats/goroutine invariants statically.

GO ?= go

.PHONY: build fmt vet lint test race simcheck check bench bench-archive bench-full profile

build:
	$(GO) build ./...

# Every Go file is gofmt-clean; gofmt -l lists the ones that are not.
fmt:
	test -z "$$(gofmt -l .)"

# Vet the simcheck build too: its sanitizer files and tests compile only
# under the tag, so plain vet misses their breakage.
vet:
	$(GO) vet ./...
	$(GO) vet -tags simcheck ./...

# Domain static analysis over the whole module, seven analyzers:
# nondeterminism, maporder, statsmerge, poolslot, allocfree, hotdiv and
# invariantcall. Their fixture tests run under `make test`. See README
# "Determinism invariants" and "Correctness tooling".
lint:
	$(GO) run ./cmd/renuca-lint

test:
	$(GO) test ./...

# Race-detect the concurrency-bearing packages plus the top-level harness.
# (`$(GO) test -race ./...` also works; this subset keeps the gate fast.)
race:
	$(GO) test -race ./internal/pool/ ./internal/core/ ./internal/experiments/ .

# Full test suite with the runtime architectural-invariant sanitizer armed
# (address ownership of every private-cache line, cache occupancy
# conservation, NoC latency envelopes, DRAM bank legality, wear
# monotonicity). Slower; CI runs it as its own job.
simcheck:
	$(GO) test -tags simcheck -race ./...

check: build fmt vet lint test race

# Benchmarks in two groups, distilled into BENCH.json (median, min and max
# ns/op and ops-per-sec per benchmark, each sample's iteration count, the
# same for B/op and allocs/op where reported, and the host's fingerprint)
# by renuca-benchjson. The text log is preserved verbatim.
#
# - LAYER_BENCH, one simulator layer per benchmark, runs LAYER_BENCHTIME
#   iterations per sample (200000x: every sample does the same work, past
#   cold caches and table growth). Its figures are comparable across
#   snapshots from one host. At 1x they are one cold call plus the timer's
#   overhead, and the guard refuses to compare them.
# - WHOLE_BENCH, construction, one simulation, a suite and the lint pass,
#   runs once per sample: one iteration is already the whole job.
#
# CI's smoke runs `make bench LAYER_BENCHTIME=1x`, which only checks that
# every benchmark builds and runs. Raise BENCHCOUNT for medians over
# several samples (e.g. `make bench BENCHCOUNT=5`).
LAYER_BENCHTIME ?= 200000x
BENCHCOUNT ?= 1
LAYER_BENCH = BenchmarkCacheLookup|BenchmarkCacheFill|BenchmarkTLBAccess|BenchmarkCPT|BenchmarkLLCAccess|BenchmarkBankService|BenchmarkCoreTick|BenchmarkTraceNext|BenchmarkMeshTraverse|BenchmarkDRAMAccess|BenchmarkWalk
WHOLE_BENCH = BenchmarkNewSystem|BenchmarkSingleSim|BenchmarkSuiteThroughput|BenchmarkLintRepo
bench:
	$(GO) build -o /tmp/renuca-benchjson ./cmd/renuca-benchjson
	$(GO) test -run='^$$' -benchtime=$(LAYER_BENCHTIME) -count=$(BENCHCOUNT) -bench='$(LAYER_BENCH)' \
		./internal/cache ./internal/tlb ./internal/predictor ./internal/nuca ./internal/cpu ./internal/trace ./internal/noc ./internal/dram ./internal/sim > /tmp/renuca-bench.txt
	$(GO) test -run='^$$' -benchtime=1x -count=$(BENCHCOUNT) -bench='$(WHOLE_BENCH)' \
		./internal/sim ./internal/lint >> /tmp/renuca-bench.txt
	/tmp/renuca-benchjson -o BENCH.json < /tmp/renuca-bench.txt

# Snapshot the current BENCH.json into the per-PR history as BENCH_$(N).json
# (e.g. `make bench-archive N=6` after `make bench BENCHCOUNT=3`). History is
# append-only: an existing snapshot is never overwritten — renumber or delete
# it explicitly if a snapshot really must be redone.
bench-archive:
	@test -n "$(N)" || { echo "usage: make bench-archive N=<pr-number>" >&2; exit 1; }
	@test -f BENCH.json || { echo "no BENCH.json; run 'make bench' first" >&2; exit 1; }
	@test ! -f BENCH_$(N).json || { echo "BENCH_$(N).json already exists; benchmark history is append-only" >&2; exit 1; }
	cp BENCH.json BENCH_$(N).json
	@echo "archived BENCH.json -> BENCH_$(N).json"

# One regeneration of every experiment as testing.B benchmarks.
bench-full:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# CPU+heap profile of a representative serial run (one worker, so the
# per-simulation hot path dominates). Inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) build -o /tmp/renuca-bench ./cmd/renuca-bench
	/tmp/renuca-bench -exp fig4 -workers 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"
