package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// contract is the part of the repository's BENCHMARK.json the command must
// honour: its workloads, and every metric with its unit.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// smoke runs a workload at 1/100 of its windows.
func smoke(t *testing.T, workload string, traced bool) report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: 1, reps: 1, trace: traced, workers: 2, scale: 100, setupPerRep: 5})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkOutcome requires a clean result carrying exactly the metrics want,
// with their units, and that it prints as the contract's last line.
func checkOutcome(t *testing.T, rep report, want []namedUnit) {
	t.Helper()
	o := rep.outcome
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 || rep.detail.FailedFrac != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d failures=%q", o.Correct, o.Attempted, o.Failed, rep.detail.Failures)
	}
	if len(o.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(o.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := o.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys: %s", lines[len(lines)-1])
	}
}

// TestSmoke runs every workload of BENCHMARK.json untraced twice and traced
// once: every metric must come out with its unit, no unit may fail, the
// instrumented run and the hierarchy replay must reproduce core.RunUnit
// exactly, and
// sim_digest must repeat across runs.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command defines %d", len(c.Workloads), len(specs))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if specByName(w.Name) == nil {
				t.Fatalf("workload %s is not defined", w.Name)
			}
			first := smoke(t, w.Name, false)
			checkOutcome(t, first, c.EndToEnd)
			second := smoke(t, w.Name, false)
			if first.detail.SimDigest == "" || first.detail.SimDigest != second.detail.SimDigest {
				t.Errorf("sim_digest %q then %q", first.detail.SimDigest, second.detail.SimDigest)
			}
			checkOutcome(t, smoke(t, w.Name, true), c.PerLayer)
		})
	}
}

// TestBadArguments: every bad invocation exits non-zero with one line on
// stderr and prints no result.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown workload", []string{"-workload", "no-such-workload"}},
		{"zero reps", []string{"-workload", "paper-suite", "-reps", "0"}},
		{"non-numeric seed", []string{"-workload", "paper-suite", "-seed", "abc"}},
		{"unknown flag", []string{"-workload", "paper-suite", "-no-such-flag"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code == 0 {
				t.Errorf("exit code 0")
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q", stdout.String())
			}
			if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Errorf("stderr is not one line: %q", msg)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ fn, want string }{
		{"repro/internal/sim.(*System).walk", "sim"},
		{"repro/internal/cache.(*Cache).Lookup", "cache"},
		{"repro/internal/stats.MergeNumeric", "other"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKey", "runtime"},
		{"main.(*recorder).Load", "other"},
		{"sync/atomic.(*Int64).Add", "other"},
	} {
		if got := layerOf(packageOf(tc.fn)); got != tc.want {
			t.Errorf("layerOf(%s) = %s, want %s", tc.fn, got, tc.want)
		}
	}
}
