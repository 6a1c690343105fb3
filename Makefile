# Verification targets. `make check` is the full tier-1 + race gate; the
# parallel harness (internal/pool, the experiment Runner's fan-out) must
# stay race-clean, so the race detector is part of the standard gate, and
# renuca-lint enforces the determinism/seed/stats invariants statically.

GO ?= go

.PHONY: build fmt vet lint lint-self test race simcheck check bench bench-archive bench-full profile

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

# Domain static analysis, nine analyzers: nondeterminism, maporder,
# statsmerge, seedflow, poolslot, allocfree, hotdiv, invariantcall and the
# concurrency contract goroleak. See README "Determinism invariants" and
# "Correctness tooling".
lint:
	$(GO) run ./cmd/renuca-lint ./...

# The lint self-test: fixture `want` harness for every analyzer, the allow
# hardening (unknown/stale) fixtures, the pinned roster, and the -json
# schema gate.
lint-self:
	$(GO) test ./internal/lint/ ./cmd/renuca-lint/ -short
	$(GO) run ./cmd/renuca-lint -json ./... > /tmp/renuca-lint.json
	$(GO) run ./cmd/renuca-lint -check-json < /tmp/renuca-lint.json

test:
	$(GO) test ./...

# Race-detect the concurrency-bearing packages plus the top-level harness.
# (`$(GO) test -race ./...` also works; this subset keeps the gate fast.)
race:
	$(GO) test -race ./internal/pool/ ./internal/core/ ./internal/experiments/ .

# Full test suite with the runtime architectural-invariant sanitizer armed
# (MESI legality, cache occupancy conservation, NoC latency envelopes, DRAM
# bank legality, wear monotonicity). Slower; CI runs it as its own job.
simcheck:
	$(GO) test -tags simcheck -race ./...

check: build fmt vet lint test race

# Hot-path microbenchmarks in short mode: per-package probe costs plus the
# end-to-end single-simulation baseline. CI runs this as a smoke. The text
# log is preserved verbatim and also distilled into BENCH.json (median,
# min and max ns/op and ops-per-sec per benchmark, the same for B/op and
# allocs/op where reported, and the host's fingerprint) by
# renuca-benchjson; raise
# BENCHCOUNT for a meaningful median (e.g. `make bench BENCHCOUNT=5`).
BENCHTIME ?= 1x
BENCHCOUNT ?= 1
bench:
	$(GO) build -o /tmp/renuca-benchjson ./cmd/renuca-benchjson
	$(GO) test -run='^$$' -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) \
		-bench='BenchmarkCacheLookup|BenchmarkCacheFill|BenchmarkTLBAccess|BenchmarkDirectory|BenchmarkCPT|BenchmarkLLCAccess|BenchmarkBankService|BenchmarkCoreTick|BenchmarkTraceNext|BenchmarkMeshTraverse|BenchmarkDRAMAccess|BenchmarkWalk|BenchmarkNewSystem|BenchmarkSingleSim|BenchmarkSuiteThroughput|BenchmarkLintRepo' \
		./internal/cache ./internal/tlb ./internal/coherence ./internal/predictor ./internal/nuca ./internal/cpu ./internal/trace ./internal/noc ./internal/dram ./internal/sim ./internal/lint > /tmp/renuca-bench.txt
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
