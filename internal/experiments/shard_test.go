package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/shard"
)

// TestMain doubles as the shard worker entry point: the sharded suite
// tests re-execute this test binary with RENUCA_SHARD_WORKER=1, which
// routes it into shard.RunWorker exactly like the production binaries'
// hidden -shard-worker flag.
func TestMain(m *testing.M) {
	if os.Getenv("RENUCA_SHARD_WORKER") == "1" {
		if err := shard.RunWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func shardCoordinator(t *testing.T, shards int, extraEnv ...string) *shard.Coordinator {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &shard.Coordinator{
		Shards:  shards,
		Command: []string{exe},
		Env:     append([]string{"RENUCA_SHARD_WORKER=1"}, extraEnv...),
		Log:     t.Logf,
	}
}

func readSuiteGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "tiny_suite.golden"))
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	return string(want)
}

// TestShardedSuiteGolden is the end-to-end determinism proof for the
// multi-process runner: the tiny suite executed by a 4-shard coordinator —
// units serialised to worker processes, reports round-tripped through the
// JSON pipe protocol, aggregated via the shared merge path — must be
// byte-identical to the committed single-process golden.
func TestShardedSuiteGolden(t *testing.T) {
	r := NewRunner(tinyParams())
	coord := shardCoordinator(t, 4)
	r.Exec = coord
	compareGolden(t, "Shards=4", renderSuiteOutputsOn(t, r), readSuiteGolden(t))

	cs, ws := coord.Stats()
	if cs.Units != 50 || ws.UnitsRun != 50 {
		t.Errorf("coordinator ran %d/%d units, want 50/50", ws.UnitsRun, cs.Units)
	}
	if cs.WorkerDeaths != 0 || cs.Retries != 0 || cs.Timeouts != 0 {
		t.Errorf("healthy sharded run recorded failures: %+v", cs)
	}
	if got := r.Sims(); got != 50 {
		t.Errorf("Runner counted %d sims, want 50", got)
	}
}

// TestShardedSuiteSurvivesWorkerCrash combines the fault injection with
// the golden: every worker process is killed after completing 7 units
// (dying while holding an 8th), so the coordinator restarts workers and
// re-dispatches stranded units repeatedly — and the merged suite output
// must STILL match the single-process golden byte for byte.
func TestShardedSuiteSurvivesWorkerCrash(t *testing.T) {
	r := NewRunner(tinyParams())
	coord := shardCoordinator(t, 3, "RENUCA_SHARD_CRASH_AFTER=7")
	r.Exec = coord
	compareGolden(t, "crash-recovery", renderSuiteOutputsOn(t, r), readSuiteGolden(t))

	cs, _ := coord.Stats()
	if cs.WorkerDeaths == 0 {
		t.Error("fault injection never killed a worker")
	}
	if cs.Retries == 0 || cs.Dispatched <= cs.Units {
		t.Errorf("no stranded unit was re-dispatched: %+v", cs)
	}
	if cs.WorkerStarts <= 3 {
		t.Errorf("dead workers were not replaced: %+v", cs)
	}
}
