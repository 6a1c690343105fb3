package experiments

import "testing"

// TestParallelDeterminism is the determinism regression guard for the
// worker-pool harness: two suites rendered with Workers=8 and the same seed
// must agree with each other and with the golden that TestSuiteGoldenOutput
// pins as the Workers=1 render, so serial and parallel runs agree without
// simulating the serial suite a second time.
func TestParallelDeterminism(t *testing.T) {
	p := tinyParams()
	p.Workers = 8
	parallel := renderSuiteOutputs(t, p)
	parallel2 := renderSuiteOutputs(t, p)

	if parallel != parallel2 {
		t.Errorf("two Workers=8 runs with the same seed differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", parallel, parallel2)
	}
	compareGolden(t, "Workers=8", parallel, readGolden(t, suiteGoldenPath))
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
