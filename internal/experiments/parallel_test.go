package experiments

import (
	"strings"
	"testing"
)

// renderSuiteOutputs regenerates every rendered view of the "actual"
// variant's five-policy suite under the given worker count.
func renderSuiteOutputs(t *testing.T, p Params) string {
	t.Helper()
	lr, err := NewRunner(p).Lifetime(mustVariant("actual"))
	if err != nil {
		t.Fatal(err)
	}
	return lr.RenderPerBank("Figure 3", []string{"S-NUCA", "R-NUCA", "Private", "Naive"}) +
		lr.RenderFigure4([]string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}) +
		lr.RenderIPCImprovements("Figure 11")
}

// TestParallelDeterminism is the determinism regression guard for the
// worker-pool harness: a suite rendered with Workers=1 must be
// byte-identical to the same suite rendered with Workers=8, and two
// parallel runs with the same seed must agree with each other.
func TestParallelDeterminism(t *testing.T) {
	serialP := tinyParams()
	serialP.Workers = 1
	parallelP := tinyParams()
	parallelP.Workers = 8

	serial := renderSuiteOutputs(t, serialP)
	parallel := renderSuiteOutputs(t, parallelP)
	parallel2 := renderSuiteOutputs(t, parallelP)

	if serial != parallel {
		t.Errorf("Workers=1 and Workers=8 outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if parallel != parallel2 {
		t.Errorf("two Workers=8 runs with the same seed differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", parallel, parallel2)
	}
	if !strings.Contains(serial, "CB-15") {
		t.Error("rendered output incomplete")
	}
}

// TestTable3ReusesMemoisedSuite checks Table III's batching against the
// memo: after Lifetime has run the "actual" suites, Table3 runs only the
// other three variants — 3 variants x 5 policies x 10 workloads — and a
// second Table3 runs nothing. Only the sim count matters, so the windows
// are a fifth of tinyParams'.
func TestTable3ReusesMemoisedSuite(t *testing.T) {
	p := tinyParams()
	p.InstrPerCore, p.Warmup = 500, 120
	r := NewRunner(p)
	if _, err := r.Lifetime(mustVariant("actual")); err != nil {
		t.Fatal(err)
	}
	before := r.Sims()
	t3, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sims() - before; got != 150 {
		t.Errorf("Table3 after Lifetime(actual) ran %d sims, want 150", got)
	}
	if len(t3.Rows) != len(Variants()) {
		t.Fatalf("Table3 has %d rows, want %d", len(t3.Rows), len(Variants()))
	}
	for i, v := range Variants() {
		if t3.Rows[i].Variant != v.Key {
			t.Errorf("row %d is variant %q, want %q", i, t3.Rows[i].Variant, v.Key)
		}
	}
	before = r.Sims()
	if _, err := r.Table3(); err != nil {
		t.Fatal(err)
	}
	if got := r.Sims() - before; got != 0 {
		t.Errorf("second Table3 ran %d sims, want 0", got)
	}
}

// TestSeedSensitivity guards the other direction: different seeds must
// produce different suite results (the derivation must actually thread the
// seed through).
func TestSeedSensitivity(t *testing.T) {
	p1 := tinyParams()
	p2 := tinyParams()
	p2.Seed = p1.Seed + 1
	if renderSuiteOutputs(t, p1) == renderSuiteOutputs(t, p2) {
		t.Error("different seeds produced identical suite output")
	}
}
