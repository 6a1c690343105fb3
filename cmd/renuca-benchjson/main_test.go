package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc marshals a summary document into dir and returns its path.
func writeDoc(t *testing.T, dir, name string, benchmarks []Entry) string {
	t.Helper()
	b, err := json.Marshal(Doc{Benchmarks: benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSummarizeMemoryColumns: the B/op and allocs/op columns fold into
// their own medians, a measured 0 is recorded rather than dropped, and a
// benchmark whose lines carry no memory columns gets neither field.
func TestSummarizeMemoryColumns(t *testing.T) {
	log := strings.Join([]string{
		"goos: linux",
		"BenchmarkNewSystem-2   \t      10\t   7300000 ns/op\t 8150000 B/op\t     215 allocs/op",
		"BenchmarkNewSystem-2   \t      10\t   7900000 ns/op\t 8150016 B/op\t     217 allocs/op",
		"BenchmarkNewSystem-2   \t      10\t   7500000 ns/op\t 8150008 B/op\t     216 allocs/op",
		"BenchmarkWalk/Re-NUCA-2 \t 1000000\t        55.5 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkLintRepo-2    \t       1\t3000000000 ns/op",
		"PASS",
	}, "\n")
	var tee strings.Builder
	entries, err := summarize(strings.NewReader(log), &tee)
	if err != nil {
		t.Fatal(err)
	}
	if tee.String() != log+"\n" {
		t.Errorf("log not teed verbatim: %q", tee.String())
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries, want 3: %+v", len(entries), entries)
	}
	check := func(e Entry, wantBytes, wantAllocs float64) {
		t.Helper()
		if e.MedianBytesPerOp == nil || *e.MedianBytesPerOp != wantBytes {
			t.Errorf("%s: median_bytes_per_op %v, want %v", e.Name, e.MedianBytesPerOp, wantBytes)
		}
		if e.MedianAllocsPerOp == nil || *e.MedianAllocsPerOp != wantAllocs {
			t.Errorf("%s: median_allocs_per_op %v, want %v", e.Name, e.MedianAllocsPerOp, wantAllocs)
		}
	}
	if e := entries[0]; e.Name != "BenchmarkNewSystem" || e.Samples != 3 || e.MedianNsPerOp != 7500000 {
		t.Errorf("NewSystem entry %+v", e)
	}
	check(entries[0], 8150008, 216)
	check(entries[1], 0, 0)
	lint := entries[2]
	if lint.MedianBytesPerOp != nil || lint.MedianAllocsPerOp != nil {
		t.Errorf("%s has no memory columns but got %+v", lint.Name, lint)
	}
	b, err := json.Marshal(lint)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "per_op\":null") || strings.Contains(string(b), "bytes") {
		t.Errorf("absent memory columns serialised: %s", b)
	}
}

// TestSummarizeMemoryColumnsIndependent: each memory column is parsed on
// its own, so a line carrying only B/op (or only allocs/op) records that
// field and leaves the other absent.
func TestSummarizeMemoryColumnsIndependent(t *testing.T) {
	for _, tc := range []struct {
		line                  string
		wantBytes, wantAllocs bool
	}{
		{"BenchmarkA-2  5  100 ns/op  4096 B/op", true, false},
		{"BenchmarkA-2  5  100 ns/op  3 allocs/op", false, true},
	} {
		entries, err := summarize(strings.NewReader(tc.line), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		e := entries[0]
		if (e.MedianBytesPerOp != nil) != tc.wantBytes || (e.MedianAllocsPerOp != nil) != tc.wantAllocs {
			t.Errorf("%q: bytes %v allocs %v, want present %v/%v",
				tc.line, e.MedianBytesPerOp, e.MedianAllocsPerOp, tc.wantBytes, tc.wantAllocs)
		}
	}
}

// TestSummarizeNoResults: a log without result lines is an error, not an
// empty summary.
func TestSummarizeNoResults(t *testing.T) {
	if _, err := summarize(strings.NewReader("PASS\nok repro 1s\n"), io.Discard); err == nil {
		t.Error("want an error for a log with no result lines")
	}
}

// TestRunGuard pins the perf-guard decision table CI relies on: small drops
// and gains pass, drops beyond the threshold fail, a benchmark absent from
// the baseline passes with a warning (the commit introducing a benchmark
// must not fail its own guard), and a benchmark absent from the current
// summary fails (it silently vanished from the bench run).
func TestRunGuard(t *testing.T) {
	const guard = "BenchmarkSuiteThroughput/pool"
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json", []Entry{{Name: guard, PerSec: 1.0}})
	cases := []struct {
		name     string
		current  []Entry
		maxDrop  float64
		wantCode int
		wantMsg  string
	}{
		{"within threshold", []Entry{{Name: guard, PerSec: 0.95}}, 10, 0, "guard OK"},
		{"gain", []Entry{{Name: guard, PerSec: 1.4}}, 10, 0, "guard OK"},
		{"at threshold", []Entry{{Name: guard, PerSec: 0.90}}, 10, 0, "guard OK"},
		{"beyond threshold", []Entry{{Name: guard, PerSec: 0.85}}, 10, 1, "guard FAIL"},
		{"collapse", []Entry{{Name: guard, PerSec: 0.01}}, 10, 1, "guard FAIL"},
		{"missing from current", []Entry{{Name: "BenchmarkOther", PerSec: 5}}, 10, 1, "missing from"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeDoc(t, dir, "cur.json", tc.current)
			var out strings.Builder
			if code := runGuard(&out, base, cur, guard, tc.maxDrop); code != tc.wantCode {
				t.Fatalf("exit code %d, want %d (output: %s)", code, tc.wantCode, out.String())
			}
			if !strings.Contains(out.String(), tc.wantMsg) {
				t.Errorf("output %q does not contain %q", out.String(), tc.wantMsg)
			}
		})
	}

	t.Run("missing from baseline passes", func(t *testing.T) {
		emptyBase := writeDoc(t, dir, "empty.json", []Entry{{Name: "BenchmarkOther", PerSec: 5}})
		cur := writeDoc(t, dir, "cur.json", []Entry{{Name: guard, PerSec: 0.5}})
		var out strings.Builder
		if code := runGuard(&out, emptyBase, cur, guard, 10); code != 0 {
			t.Fatalf("new benchmark failed its introducing guard: code %d, output %s", code, out.String())
		}
		if !strings.Contains(out.String(), "not in baseline") {
			t.Errorf("output %q does not explain the baseline miss", out.String())
		}
	})

	t.Run("unreadable baseline fails", func(t *testing.T) {
		cur := writeDoc(t, dir, "cur.json", []Entry{{Name: guard, PerSec: 1}})
		var out strings.Builder
		if code := runGuard(&out, filepath.Join(dir, "absent.json"), cur, guard, 10); code != 1 {
			t.Fatalf("unreadable baseline returned %d, want 1", code)
		}
	})

	t.Run("missing flags usage error", func(t *testing.T) {
		var out strings.Builder
		if code := runGuard(&out, base, "", "", 10); code != 2 {
			t.Fatalf("missing -current/-guard returned %d, want 2", code)
		}
	})
}
