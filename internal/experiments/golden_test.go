package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// suiteGoldenPath holds the rendered "actual" suite at tinyParams.
var suiteGoldenPath = filepath.Join("testdata", "tiny_suite.golden")

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

// TestSuiteGoldenOutput pins the Workers=1 render of the suite byte-for-byte
// against a committed golden file; TestParallelDeterminism holds the
// Workers=8 renders to the same file. Any change to seed derivation, merge
// order, or rendering shows up as a golden diff that has to be reviewed and
// regenerated deliberately (go test ./internal/experiments -run Golden
// -update).
func TestSuiteGoldenOutput(t *testing.T) {
	serialP := tinyParams()
	serialP.Workers = 1
	got := renderSuiteOutputs(t, serialP)
	if !strings.Contains(got, "CB-15") {
		t.Error("rendered output incomplete")
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(suiteGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", suiteGoldenPath, len(got))
	}

	compareGolden(t, "Workers=1", got, readGolden(t, suiteGoldenPath))
}

// TestSeedSensitivity guards the other direction: a different seed must
// produce a different suite result (the derivation must actually thread the
// seed through). TestSuiteGoldenOutput pins the seed-1 render to the
// golden, so the seed-2 render is compared with that.
func TestSeedSensitivity(t *testing.T) {
	p := tinyParams()
	p.Seed++
	if renderSuiteOutputs(t, p) == readGolden(t, suiteGoldenPath) {
		t.Error("different seeds produced identical suite output")
	}
}

// renderContentionOutputs renders the bank contention view (five policies'
// wait and slip counters) for the "actual" variant at the given
// parameters.
func renderContentionOutputs(t *testing.T, p Params) string {
	t.Helper()
	cr, err := NewRunner(p).Contention(mustVariant("actual"))
	if err != nil {
		t.Fatal(err)
	}
	return cr.Render()
}

// TestContentionGoldenOutput is TestSuiteGoldenOutput's twin for the bank
// contention view: the five policies' wait and slip counters are pinned
// byte-for-byte, at Workers=1 and 8, so the counters stay deterministic
// under every execution mode. Regenerate deliberately with
// go test ./internal/experiments -run ContentionGolden -update.
func TestContentionGoldenOutput(t *testing.T) {
	goldenPath := filepath.Join("testdata", "tiny_contention.golden")

	serialP := tinyParams()
	serialP.Workers = 1
	got := renderContentionOutputs(t, serialP)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
	}

	want := readGolden(t, goldenPath)
	compareGolden(t, "Workers=1", got, want)

	parallelP := tinyParams()
	parallelP.Workers = 8
	compareGolden(t, "Workers=8", renderContentionOutputs(t, parallelP), want)
}

// readGolden returns the committed golden file at path.
func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	return string(b)
}

// compareGolden fails with the first differing line rather than dumping two
// full renders, so a one-counter drift reads as one line of diff.
func compareGolden(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s output diverges from golden at line %d:\n  got:  %q\n  want: %q\n(regenerate with -update if the change is intentional)",
				label, i+1, g, w)
			return
		}
	}
	t.Errorf("%s output differs from golden only in trailing bytes (got %d bytes, want %d)", label, len(got), len(want))
}
