package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestSuiteGoldenOutput pins the rendered suite output byte-for-byte against
// a committed golden file, at both Workers=1 and Workers=8. Where
// TestParallelDeterminism proves serial and parallel runs agree with each
// other, this test proves they agree with the past: any change to seed
// derivation, merge order, or rendering shows up as a golden diff that has
// to be reviewed and regenerated deliberately (go test ./internal/experiments
// -run Golden -update).
func TestSuiteGoldenOutput(t *testing.T) {
	goldenPath := filepath.Join("testdata", "tiny_suite.golden")

	serialP := tinyParams()
	serialP.Workers = 1
	got := renderSuiteOutputs(t, serialP)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	compareGolden(t, "Workers=1", got, string(want))

	parallelP := tinyParams()
	parallelP.Workers = 8
	compareGolden(t, "Workers=8", renderSuiteOutputs(t, parallelP), string(want))
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

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	compareGolden(t, "Workers=1", got, string(want))

	parallelP := tinyParams()
	parallelP.Workers = 8
	compareGolden(t, "Workers=8", renderContentionOutputs(t, parallelP), string(want))
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
