package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// TestMain doubles as the worker entry point: the coordinator tests
// re-execute this test binary with RENUCA_SHARD_WORKER=1, which routes it
// straight into RunWorker instead of the test suite — the same hidden
// re-exec trick the production binaries use for their -shard-worker flag.
func TestMain(m *testing.M) {
	if os.Getenv("RENUCA_SHARD_WORKER") == "1" {
		if err := RunWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyUnits builds n fully-resolved suite units small enough for subprocess
// tests (a few tens of milliseconds each).
func tinyUnits(t *testing.T, n int) []core.Unit {
	t.Helper()
	base := core.DefaultOptions(core.ReNUCA)
	base.InstrPerCore = 2000
	base.Warmup = 500
	base.Seed = 7
	wls := core.StandardWorkloads()
	if n > len(wls) {
		t.Fatalf("tinyUnits: %d > %d workloads", n, len(wls))
	}
	return core.SuiteUnits("t", base, wls[:n])
}

// newTestCoordinator re-executes this test binary as the worker.
func newTestCoordinator(t *testing.T, shards int, extraEnv ...string) *Coordinator {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &Coordinator{
		Shards:  shards,
		Command: []string{exe},
		Env:     append([]string{"RENUCA_SHARD_WORKER=1"}, extraEnv...),
		Log:     t.Logf,
	}
}

// checkReports verifies the coordinator's reports against in-process
// executions of the same units: the whole point of the shard layer is that
// a unit's Report is identical wherever it ran.
func checkReports(t *testing.T, units []core.Unit, got []core.Report) {
	t.Helper()
	if len(got) != len(units) {
		t.Fatalf("got %d reports for %d units", len(got), len(units))
	}
	for i, u := range units {
		want, err := core.RunUnit(u)
		if err != nil {
			t.Fatalf("in-process reference for %s: %v", u.ID, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("unit %s: sharded report differs from in-process; diverging counters: %v",
				u.ID, stats.DiffNumeric(got[i], want))
		}
	}
}

// TestWorkerRoundTrip drives RunWorker in-memory through the full
// protocol: a good unit yields a result line, a malformed unit yields an
// error line (and does not kill the worker), and EOF yields the stats
// line accounting for both.
func TestWorkerRoundTrip(t *testing.T) {
	units := tinyUnits(t, 1)
	bad := units[0]
	bad.ID = "t/bad"
	bad.Opts.Apps = bad.Opts.Apps[:3] // wrong core count: deterministic unit error

	var in bytes.Buffer
	for seq, u := range []core.Unit{units[0], bad} {
		b, err := json.Marshal(unitMsg{Seq: seq, Unit: u})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(append(b, '\n'))
	}
	var out bytes.Buffer
	if err := RunWorker(&in, &out); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}

	var msgs []workerMsg
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var m workerMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("undecodable worker line %q: %v", sc.Text(), err)
		}
		msgs = append(msgs, m)
	}
	if len(msgs) != 3 {
		t.Fatalf("got %d messages, want result+error+stats", len(msgs))
	}
	if msgs[0].Kind != msgResult || msgs[0].Seq != 0 || msgs[0].Report == nil {
		t.Errorf("first message = %+v, want a result for seq 0", msgs[0])
	}
	want, err := core.RunUnit(units[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*msgs[0].Report, want) {
		t.Errorf("round-tripped report differs; diverging counters: %v", stats.DiffNumeric(*msgs[0].Report, want))
	}
	if msgs[1].Kind != msgError || msgs[1].Seq != 1 || msgs[1].Error == "" {
		t.Errorf("second message = %+v, want an error for seq 1", msgs[1])
	}
	ws := msgs[2].Stats
	if msgs[2].Kind != msgStats || ws == nil {
		t.Fatalf("third message = %+v, want stats", msgs[2])
	}
	if ws.UnitsRun != 1 || ws.UnitsFailed != 1 {
		t.Errorf("worker stats = %+v, want 1 run / 1 failed", ws)
	}
	if ws.InstrSimulated != want.InstrPerCore*uint64(len(units[0].Opts.Apps)) {
		t.Errorf("InstrSimulated = %d, want %d", ws.InstrSimulated, want.InstrPerCore*uint64(len(units[0].Opts.Apps)))
	}
	if ws.MeasuredCycles != want.MeasuredCycles {
		t.Errorf("MeasuredCycles = %d, want %d", ws.MeasuredCycles, want.MeasuredCycles)
	}
}

// TestWorkerRejectsGarbage: an undecodable unit line is a protocol error,
// not something to limp past.
func TestWorkerRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	if err := RunWorker(strings.NewReader("{not json}\n"), &out); err == nil {
		t.Fatal("RunWorker accepted garbage input")
	}
}

// TestCoordinatorRunsUnits is the happy path over real subprocesses: two
// workers, four units, positional reports identical to in-process runs,
// clean shutdown with merged worker stats.
func TestCoordinatorRunsUnits(t *testing.T) {
	units := tinyUnits(t, 4)
	c := newTestCoordinator(t, 2)
	got, err := c.RunUnits(units)
	if err != nil {
		t.Fatalf("RunUnits: %v", err)
	}
	checkReports(t, units, got)
	cs, ws := c.Stats()
	if cs.Units != 4 || cs.Dispatched != 4 || cs.WorkerStarts != 2 {
		t.Errorf("coordinator stats = %+v, want 4 units over 2 workers", cs)
	}
	if cs.WorkerDeaths != 0 || cs.Retries != 0 || cs.Timeouts != 0 {
		t.Errorf("healthy run recorded failures: %+v", cs)
	}
	if ws.UnitsRun != 4 || ws.UnitsFailed != 0 {
		t.Errorf("merged worker stats = %+v, want 4 clean units", ws)
	}
}

// TestCoordinatorCrashRetry injects the worker-killed-mid-run fault: every
// worker process exits abruptly on receiving its 2nd unit, stranding an
// accepted unit. The coordinator must reap, restart and re-dispatch until
// the batch completes — with reports still identical to in-process runs.
func TestCoordinatorCrashRetry(t *testing.T) {
	units := tinyUnits(t, 6)
	c := newTestCoordinator(t, 2, "RENUCA_SHARD_CRASH_AFTER=1")
	// crashAfter=1 means every death follows at least one completed unit, so
	// progress-aware accounting never charges a retry budget: which unit gets
	// stranded is scheduling luck, but recovery is deterministic under the
	// default budget. (The budget's own abort path has its own test below.)
	got, err := c.RunUnits(units)
	if err != nil {
		t.Fatalf("RunUnits with crashing workers: %v", err)
	}
	checkReports(t, units, got)
	cs, _ := c.Stats()
	if cs.WorkerDeaths == 0 {
		t.Error("fault injection never killed a worker")
	}
	if cs.Retries == 0 || cs.Dispatched <= cs.Units {
		t.Errorf("no unit was re-dispatched after a death: %+v", cs)
	}
	if cs.Charged != 0 {
		t.Errorf("Charged = %d, want 0: every death followed a completion, so no re-dispatch may consume budget: %+v", cs.Charged, cs)
	}
	if cs.WorkerStarts <= 2 {
		t.Errorf("dead workers were not replaced: %+v", cs)
	}
}

// TestCoordinatorHangTimeout injects the wedged-worker fault: a worker
// accepts its 2nd unit and never answers. The per-unit timeout must reap
// it and the unit must complete on a replacement.
func TestCoordinatorHangTimeout(t *testing.T) {
	units := tinyUnits(t, 3)
	c := newTestCoordinator(t, 1, "RENUCA_SHARD_HANG_AFTER=1")
	c.Timeout = 1500 * time.Millisecond
	got, err := c.RunUnits(units)
	if err != nil {
		t.Fatalf("RunUnits with hanging workers: %v", err)
	}
	checkReports(t, units, got)
	cs, _ := c.Stats()
	if cs.Timeouts == 0 {
		t.Errorf("hanging worker was never timed out: %+v", cs)
	}
	if cs.Retries == 0 {
		t.Errorf("timed-out unit was not re-dispatched: %+v", cs)
	}
}

// TestCoordinatorDeterministicErrorAborts: a unit that fails inside the
// simulation is a pure-function failure — the coordinator must abort with
// that unit's error instead of burning its retry budget.
func TestCoordinatorDeterministicErrorAborts(t *testing.T) {
	units := tinyUnits(t, 2)
	units[0].ID = "t/bad"
	units[0].Opts.Apps = units[0].Opts.Apps[:5]
	c := newTestCoordinator(t, 1)
	if _, err := c.RunUnits(units); err == nil {
		t.Fatal("RunUnits succeeded with a deterministically failing unit")
	} else if !strings.Contains(err.Error(), "t/bad") {
		t.Errorf("error %q does not name the failing unit", err)
	}
	cs, _ := c.Stats()
	if cs.Retries != 0 {
		t.Errorf("deterministic failure was retried: %+v", cs)
	}
}

// TestCoordinatorRetryBudget: a worker command that always dies must not
// loop forever — the budget exhausts and the run fails with the cause.
func TestCoordinatorRetryBudget(t *testing.T) {
	if _, err := os.Stat("/bin/false"); err != nil {
		t.Skip("/bin/false unavailable")
	}
	units := tinyUnits(t, 1)
	c := &Coordinator{Shards: 1, Command: []string{"/bin/false"}, Retries: 1, Log: t.Logf}
	if _, err := c.RunUnits(units); err == nil {
		t.Fatal("RunUnits succeeded with a worker that always dies")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error %q does not mention the exhausted budget", err)
	}
	cs, _ := c.Stats()
	if cs.Retries != 1 || cs.WorkerDeaths != 2 {
		t.Errorf("stats = %+v, want exactly 1 retry and 2 deaths for budget 1", cs)
	}
	if cs.Charged != 1 {
		t.Errorf("Charged = %d, want 1: a worker that never completes anything must consume budget", cs.Charged)
	}
}

// TestCoordinatorStress hammers the supervision stack with randomized
// crash and hang injection across a (shards, fault) scenario matrix:
// whatever chaos the faults produce, the merged reports must stay
// identical to in-process serial runs of the same units, and no injected
// death may consume retry budget (each strikes only after its worker has
// completed at least one unit). The seed is fixed so a failure reproduces;
// variety comes from the matrix, not run-to-run randomness.
// CI runs this under -race, where it doubles as a data-race sweep of the
// whole coordinator/worker path.
func TestCoordinatorStress(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many worker subprocesses; skipped in -short")
	}
	//lint:allow nondeterminism fixed seed: the draw only varies fault timing within safe bounds; results are checked against serial references either way
	rng := rand.New(rand.NewSource(42))
	units := tinyUnits(t, 8)
	scenarios := []struct {
		name   string
		shards int
		fault  string
		// after is drawn from [minAfter, maxAfter]. The floor keeps every
		// injected death "free": at least one unit completes before the
		// fault arms, so progress-aware retry accounting never charges a
		// unit and the run cannot abort. The
		// ceiling guarantees the fault fires at all: with 8 units over at
		// most 2 shards, some worker always receives maxAfter+1 units.
		minAfter, maxAfter int
	}{
		{"crash_serial", 1, envCrashAfter, 1, 3},
		{"hang_serial", 2, envHangAfter, 2, 3},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			after := sc.minAfter + rng.Intn(sc.maxAfter-sc.minAfter+1)
			c := newTestCoordinator(t, sc.shards, fmt.Sprintf("%s=%d", sc.fault, after))
			if sc.fault == envHangAfter {
				// Hangs are only detected by the progress deadline; keep it
				// short enough to reap promptly, long enough for a healthy
				// tiny unit even under the race detector.
				c.Timeout = 2 * time.Second
			}
			got, err := c.RunUnits(units)
			if err != nil {
				t.Fatalf("RunUnits under %s=%d: %v", sc.fault, after, err)
			}
			checkReports(t, units, got)
			cs, _ := c.Stats()
			if cs.WorkerDeaths == 0 {
				t.Errorf("%s=%d never killed a worker: %+v", sc.fault, after, cs)
			}
			if cs.Retries == 0 {
				t.Errorf("no stranded unit was re-dispatched: %+v", cs)
			}
			if cs.Charged != 0 {
				t.Errorf("Charged = %d, want 0: every injected death follows completed work: %+v", cs.Charged, cs)
			}
		})
	}
}
