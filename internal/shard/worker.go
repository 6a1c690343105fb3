package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
)

// Fault-injection hooks for the supervision tests. Both are inert unless
// the environment variable is a positive integer, which only the shard
// test-suite sets; production workers never see them.
const (
	// envCrashAfter makes the worker process exit abruptly (no reply, no
	// stats) upon RECEIVING its (n+1)-th unit, leaving that unit accepted
	// but unfinished — the exact shape of a worker killed mid-run.
	envCrashAfter = "RENUCA_SHARD_CRASH_AFTER"
	// envHangAfter makes the worker stop responding after completing n
	// units, exercising the coordinator's per-unit timeout reaper.
	envHangAfter = "RENUCA_SHARD_HANG_AFTER"
)

func envInt(name string) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// RunWorker is the worker half of the shard protocol: it reads unit lines
// from r until EOF, runs each unit in-process via core.RunUnit, and writes
// one result (or error) line per unit to w, followed by a single stats
// line. It is the body of the hidden -shard-worker mode of renuca-sim and
// renuca-bench; nothing else may write to w (stdout) while it runs, or the
// line protocol is corrupted.
//
// Within one worker, execution is strictly sequential: process-level
// parallelism is the coordinator's job (N workers).
func RunWorker(r io.Reader, w io.Writer) error {
	crashAfter, hangAfter := envInt(envCrashAfter), envInt(envHangAfter)
	bw := bufio.NewWriter(w)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	var ws WorkerStats
	seen := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var um unitMsg
		if err := json.Unmarshal(line, &um); err != nil {
			return fmt.Errorf("shard worker: undecodable unit line: %w", err)
		}
		seen++
		if crashAfter > 0 && seen > crashAfter {
			bw.Flush()
			os.Exit(3) // fault injection: die holding an unfinished unit
		}
		if hangAfter > 0 && seen > hangAfter {
			// Fault injection: accept the unit, never answer. Sleep rather
			// than block on a channel so the runtime's deadlock detector
			// doesn't turn the hang into a crash.
			for {
				time.Sleep(time.Hour)
			}
		}
		rep, err := core.RunUnit(um.Unit)
		if err != nil {
			ws.UnitsFailed++
			if err := writeMsg(bw, workerMsg{Kind: msgError, Seq: um.Seq, ID: um.Unit.ID, Error: err.Error()}); err != nil {
				return err
			}
			continue
		}
		ws.UnitsRun++
		ws.InstrSimulated += um.Unit.Opts.InstrPerCore * uint64(len(um.Unit.Opts.Apps))
		ws.MeasuredCycles += rep.MeasuredCycles
		if err := writeMsg(bw, workerMsg{Kind: msgResult, Seq: um.Seq, ID: um.Unit.ID, Report: &rep}); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("shard worker: reading units: %w", err)
	}
	return writeMsg(bw, workerMsg{Kind: msgStats, Stats: &ws})
}

// writeMsg emits one protocol line and flushes, so the coordinator sees
// every message as soon as it exists — a buffered-but-unflushed result
// would read as a hung worker.
func writeMsg(bw *bufio.Writer, m workerMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard worker: encoding %s message: %w", m.Kind, err)
	}
	b = append(b, '\n')
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.Flush()
}
