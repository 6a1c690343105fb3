// Package shard scales suite execution past one process: a coordinator
// partitions a suite's simulation units (the same (seed, variant, policy,
// workload) units the in-process pool fans out, with seeds fixed up front
// by core.DeriveSeed) across N child worker processes, streams every
// worker's per-unit Result back over a line-delimited JSON pipe protocol,
// and files each Report at its unit's position, so the aggregated suite
// output is byte-identical to a single-process run at the same seed.
//
// The protocol is deliberately tiny. Coordinator -> worker (stdin), one
// JSON object per line:
//
//	{"seq": 12, "unit": {"ID": "actual/Re-NUCA/WL3", "Workload": "WL3", "Opts": {...}}}
//
// Worker -> coordinator (stdout), one JSON object per line:
//
//	{"kind": "result", "seq": 12, "id": "...", "report": {...}}   per unit
//	{"kind": "error",  "seq": 12, "id": "...", "error": "..."}    deterministic unit failure
//	{"kind": "stats",  "stats": {...}}                            once, after stdin EOF
//
// Because a Unit carries fully resolved Options — every seed derived
// before dispatch — a unit computes the identical Report wherever it runs,
// and the coordinator is free to schedule, retry and re-order work without
// touching the numbers. Worker stderr is passed through with a [shard N]
// prefix; worker stats snapshots fold into one total through the
// reflection merge net (stats.MergeNumeric), the same counter-completeness
// contract the rest of the harness uses.
//
// Fault tolerance: a worker that dies (crash, kill, EOF, protocol garbage)
// or stalls past the per-unit timeout is reaped and restarted, and its
// unfinished unit is re-dispatched up to a bounded retry budget. A unit
// that fails deterministically — the worker itself reports a simulation
// error — aborts the run immediately with that unit's error; retrying a
// pure function is pointless.
package shard

import (
	"repro/internal/core"
)

// protocol message kinds (worker -> coordinator).
const (
	msgResult = "result"
	msgError  = "error"
	msgStats  = "stats"
)

// maxLine bounds one protocol line. A Report for the 16-core system
// serialises to a few KB; the bound is generous so config growth never
// truncates the pipe, while still catching a runaway/corrupt stream.
const maxLine = 16 << 20

// unitMsg is one unit of work sent to a worker.
type unitMsg struct {
	Seq  int       `json:"seq"` // coordinator-side unit index
	Unit core.Unit `json:"unit"`
}

// workerMsg is one worker -> coordinator message.
type workerMsg struct {
	Kind   string       `json:"kind"`
	Seq    int          `json:"seq,omitempty"`
	ID     string       `json:"id,omitempty"`
	Report *core.Report `json:"report,omitempty"`
	Error  string       `json:"error,omitempty"`
	Stats  *WorkerStats `json:"stats,omitempty"`
}

// WorkerStats is one worker process's lifetime accounting, reported once
// at shutdown and folded into the coordinator's total via
// stats.MergeNumeric. Integer-only by design: summing integers is
// order-independent, so the merged totals cannot depend on which worker
// finished first.
type WorkerStats struct {
	UnitsRun       uint64 // units completed successfully
	UnitsFailed    uint64 // units that reported a deterministic error
	InstrSimulated uint64 // sum over units of instrPerCore x cores
	MeasuredCycles uint64 // sum of per-unit measured windows
}

// CoordStats is the coordinator's supervision accounting for one RunUnits
// call: how much work was dispatched, how often workers had to be replaced,
// and how many units needed re-dispatch.
type CoordStats struct {
	Units        uint64 // units in the batch
	Dispatched   uint64 // unit dispatches, including re-dispatches
	Retries      uint64 // re-dispatches after a worker death or timeout
	Charged      uint64 // re-dispatches that consumed a unit's retry budget
	Timeouts     uint64 // units reaped by the per-unit timeout
	WorkerStarts uint64 // worker processes spawned (initial + restarts)
	WorkerDeaths uint64 // worker processes that died before shutdown
}
