package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// testHost is the fingerprint writeDoc stamps on every summary.
var testHost = Host{CPUModel: "Test CPU @ 2.0GHz", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}

// writeDoc marshals a summary document measured on testHost into dir and
// returns its path.
func writeDoc(t *testing.T, dir, name string, benchmarks []Entry) string {
	t.Helper()
	h := testHost
	return writeDocOn(t, dir, name, &h, benchmarks)
}

// writeDocOn is writeDoc for a summary measured on host h (nil: none
// recorded).
func writeDocOn(t *testing.T, dir, name string, h *Host, benchmarks []Entry) string {
	t.Helper()
	return writeFullDoc(t, dir, name, Doc{Host: h, Benchmarks: benchmarks})
}

// writeFullDoc marshals d into dir and returns its path.
func writeFullDoc(t *testing.T, dir, name string, d Doc) string {
	t.Helper()
	b, err := json.Marshal(d)
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
	if e := entries[0]; e.Name != "BenchmarkNewSystem" || e.Samples != 3 || e.MedianNsPerOp != 7500000 ||
		e.MinNsPerOp != 7300000 || e.MaxNsPerOp != 7900000 {
		t.Errorf("NewSystem entry %+v", e)
	}
	check(entries[0], 8150008, 216)
	if e := entries[0]; *e.MinBytesPerOp != 8150000 || *e.MaxBytesPerOp != 8150016 ||
		*e.MinAllocsPerOp != 215 || *e.MaxAllocsPerOp != 217 {
		t.Errorf("NewSystem memory extremes: bytes %v..%v allocs %v..%v",
			*e.MinBytesPerOp, *e.MaxBytesPerOp, *e.MinAllocsPerOp, *e.MaxAllocsPerOp)
	}
	for i, want := range [][]int{{10, 10, 10}, {1000000}, {1}} {
		if got := entries[i].Iterations; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: iterations %v, want %v", entries[i].Name, got, want)
		}
	}
	if e := entries[1]; e.MinNsPerOp != 55.5 || e.MaxNsPerOp != 55.5 || *e.MinAllocsPerOp != 0 || *e.MaxAllocsPerOp != 0 {
		t.Errorf("single-sample extremes must equal the median: %+v", e)
	}
	check(entries[1], 0, 0)
	lint := entries[2]
	if lint.MedianBytesPerOp != nil || lint.MedianAllocsPerOp != nil || lint.MinBytesPerOp != nil || lint.MaxAllocsPerOp != nil {
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

// TestRunGuardRefusesSingleShot: a sub-microsecond benchmark is compared
// only when every sample of both summaries ran more than one iteration. A
// single-shot sample, or a summary without iteration counts, exits 2
// without judging the figures, even a collapse; a benchmark slower than a
// microsecond is judged at one iteration as before.
func TestRunGuardRefusesSingleShot(t *testing.T) {
	const guard = "BenchmarkWalk/S-NUCA"
	dir := t.TempDir()
	fast := func(ps float64, iters ...int) []Entry {
		return []Entry{{Name: guard, PerSec: ps, Iterations: iters}}
	}
	steady := writeDoc(t, dir, "steady.json", fast(1.6e7, 200000, 200000))
	for _, tc := range []struct {
		name     string
		baseline string
		current  []Entry
		wantCode int
		wantMsg  string
	}{
		{"both steady", steady, fast(1.5e7, 200000, 200000), 0, "guard OK"},
		{"steady collapse judged", steady, fast(1e6+1, 200000), 1, "guard FAIL"},
		{"current single-shot", steady, fast(1e6+1, 200000, 1), 2, "current iterations [200000 1]"},
		{"baseline without counts", writeDoc(t, dir, "old.json", fast(1.6e7)), fast(1.6e7, 200000), 2, "baseline iterations none recorded"},
		{"slow benchmark at 1x", writeDoc(t, dir, "slow.json", fast(2, 1)), fast(1.9, 1), 0, "guard OK"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeDoc(t, dir, "cur.json", tc.current)
			var out strings.Builder
			if code := runGuard(&out, tc.baseline, cur, guard, 10); code != tc.wantCode {
				t.Fatalf("exit code %d, want %d (output: %s)", code, tc.wantCode, out.String())
			}
			if !strings.Contains(out.String(), tc.wantMsg) {
				t.Errorf("output %q does not contain %q", out.String(), tc.wantMsg)
			}
		})
	}
}

// TestFingerprint: the summary's host fingerprint names this machine and
// toolchain.
func TestFingerprint(t *testing.T) {
	h := fingerprint()
	if h.CPUModel == "" || h.NProc < 1 || h.GOMAXPROCS < 1 || !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("incomplete fingerprint %+v", *h)
	}
	b, err := json.Marshal(Doc{Host: h})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cpu_model"`, `"nproc"`, `"gomaxprocs"`, `"go_version"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("serialised fingerprint %s lacks %s", b, key)
		}
	}
}

// TestRunGuardRefusesOtherHost: the guard compares only summaries from one
// host. Any fingerprint difference, or a summary with no fingerprint,
// exits 2 without judging the figures, even a collapse.
func TestRunGuardRefusesOtherHost(t *testing.T) {
	const guard = "BenchmarkSuiteThroughput/pool"
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json", []Entry{{Name: guard, PerSec: 1.0}})
	collapse := []Entry{{Name: guard, PerSec: 0.01}}
	other := func(mod func(*Host)) *Host {
		h := testHost
		mod(&h)
		return &h
	}
	for _, tc := range []struct {
		name     string
		baseline string
		current  *Host
		wantMsg  string
	}{
		{"cpu model", base, other(func(h *Host) { h.CPUModel = "Other CPU" }), "Other CPU"},
		{"nproc", base, other(func(h *Host) { h.NProc = 4 }), "nproc=4"},
		{"gomaxprocs", base, other(func(h *Host) { h.GOMAXPROCS = 1 }), "GOMAXPROCS=1"},
		{"go version", base, other(func(h *Host) { h.GoVersion = "go1.22.0" }), "go1.22.0"},
		{"current unfingerprinted", base, nil, "current none recorded"},
		{"baseline unfingerprinted", writeDocOn(t, dir, "old.json", nil, []Entry{{Name: guard, PerSec: 1.0}}), &testHost, "baseline none recorded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeDocOn(t, dir, "cur.json", tc.current, collapse)
			var out strings.Builder
			if code := runGuard(&out, tc.baseline, cur, guard, 10); code != 2 {
				t.Fatalf("exit code %d, want 2 (output: %s)", code, out.String())
			}
			for _, want := range []string{"host fingerprints differ", tc.wantMsg} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output %q does not contain %q", out.String(), want)
				}
			}
		})
	}
}

// TestRunGuardPrintsLoads: every guard verdict line names both summaries'
// 1-minute loads, or says none was recorded, and a load difference alone
// neither refuses nor fails a comparison on one host. load1 is a top-level
// field, outside the host fingerprint.
func TestRunGuardPrintsLoads(t *testing.T) {
	const guard = "BenchmarkSuiteThroughput/pool"
	dir := t.TempDir()
	idle, busy := 0.5, 1.75
	doc := func(h *Host, load *float64, ps float64) Doc {
		return Doc{Host: h, Load1: load, Benchmarks: []Entry{{Name: guard, PerSec: ps}}}
	}
	other := Host{CPUModel: "Other CPU"}
	base := writeFullDoc(t, dir, "base.json", doc(&testHost, &idle, 1.0))
	for _, tc := range []struct {
		name     string
		baseline string
		current  Doc
		wantCode int
		wantMsg  string
	}{
		{"ok", base, doc(&testHost, &busy, 0.98), 0, "guard OK"},
		{"fail", base, doc(&testHost, &busy, 0.5), 1, "guard FAIL"},
		{"missing from current", base, Doc{Host: &testHost, Load1: &busy}, 1, "missing from"},
		{"missing from baseline", writeFullDoc(t, dir, "nobench.json", Doc{Host: &testHost, Load1: &idle}), doc(&testHost, &busy, 1), 0, "not in baseline"},
		{"unusable baseline", writeFullDoc(t, dir, "zero.json", doc(&testHost, &idle, 0)), doc(&testHost, &busy, 1), 0, "unusable"},
		{"refused", base, doc(&other, &busy, 1), 2, "guard refused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeFullDoc(t, dir, "cur.json", tc.current)
			var out strings.Builder
			if code := runGuard(&out, tc.baseline, cur, guard, 10); code != tc.wantCode {
				t.Fatalf("exit code %d, want %d (output: %s)", code, tc.wantCode, out.String())
			}
			for _, want := range []string{tc.wantMsg, "load1 baseline 0.50, current 1.75"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output %q does not contain %q", out.String(), want)
				}
			}
		})
	}

	t.Run("none recorded", func(t *testing.T) {
		cur := writeDoc(t, dir, "cur.json", []Entry{{Name: guard, PerSec: 1}})
		var out strings.Builder
		if code := runGuard(&out, base, cur, guard, 10); code != 0 {
			t.Fatalf("exit code %d, want 0 (output: %s)", code, out.String())
		}
		if !strings.Contains(out.String(), "load1 baseline 0.50, current none recorded") {
			t.Errorf("output %q does not say the current load is missing", out.String())
		}
	})

	t.Run("top-level field", func(t *testing.T) {
		b, err := json.Marshal(doc(&testHost, &idle, 1))
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(b, &raw); err != nil {
			t.Fatal(err)
		}
		if string(raw["load1"]) != "0.5" || strings.Contains(string(raw["host"]), "load") {
			t.Errorf("load1 not a top-level field outside host: %s", b)
		}
	})

	if runtime.GOOS == "linux" {
		if v := load1(); v == nil || *v < 0 {
			t.Errorf("load1() = %v on linux, want a non-negative load", v)
		}
	}
}
