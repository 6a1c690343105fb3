// Command renuca-benchjson turns `go test -bench` text output into a
// machine-readable benchmark summary. It tees stdin through to stdout
// unchanged (so the human-readable bench log still shows in the terminal
// and in CI) while parsing benchmark result lines, and writes a JSON
// document with the median ns/op and derived ops/sec for every benchmark
// seen, plus the median B/op and allocs/op where the lines report them —
// medians because with -count>1 the repeated lines of one benchmark fold
// into a single robust figure.
//
// Usage:
//
//	go test -bench=. ./... | renuca-benchjson -o BENCH.json
//
// For the end-to-end simulation benchmarks one op is one simulation, so
// ops/sec is sims/sec; the JSON reports it as per_sec for all benchmarks.
//
// A second mode compares two summaries instead of parsing bench output —
// the CI perf guard:
//
//	renuca-benchjson -baseline old/BENCH.json -current BENCH.json \
//	    -guard BenchmarkSuiteThroughput/pool -max-drop-pct 10
//
// exits nonzero when the guarded benchmark's per_sec in -current has
// dropped more than -max-drop-pct percent below -baseline. A baseline that
// does not yet contain the guarded benchmark warns and passes (so adding a
// new benchmark cannot fail the commit that introduces it); a current
// summary missing it fails (the benchmark silently vanished). When
// -baseline is given, stdin is not read.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g. "BenchmarkSingleSim-8  1  232123456 ns/op  12 B/op";
// bytesCol and allocsCol pick the optional memory columns b.ReportAllocs
// or -benchmem append.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+)\s+ns/op`)
	bytesCol  = regexp.MustCompile(`\s([0-9.]+)\s+B/op\b`)
	allocsCol = regexp.MustCompile(`\s([0-9.]+)\s+allocs/op\b`)
)

// Entry is one benchmark's summary.
type Entry struct {
	Name string `json:"name"`
	// Samples is how many result lines (runs) were folded; -count=N yields
	// N samples per benchmark.
	Samples int `json:"samples"`
	// MedianNsPerOp is the median ns/op over the samples.
	MedianNsPerOp float64 `json:"median_ns_per_op"`
	// PerSec is 1e9 / MedianNsPerOp — operations per second; for the
	// whole-simulation benchmarks, simulations per second.
	PerSec float64 `json:"per_sec"`
	// MedianBytesPerOp and MedianAllocsPerOp are the medians of the B/op
	// and allocs/op columns over the samples that carry them, absent when
	// none does. They are pointers so a measured 0 is still recorded.
	MedianBytesPerOp  *float64 `json:"median_bytes_per_op,omitempty"`
	MedianAllocsPerOp *float64 `json:"median_allocs_per_op,omitempty"`
}

// Doc is the written BENCH.json shape.
type Doc struct {
	Benchmarks []Entry `json:"benchmarks"`
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// summarize copies the bench log in r to w line by line and folds its
// result lines into one Entry per benchmark, in first-seen order.
func summarize(r io.Reader, w io.Writer) ([]Entry, error) {
	type columns struct{ ns, bytes, allocs []float64 }
	samples := make(map[string]*columns)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		col := samples[m[1]]
		if col == nil {
			col = &columns{}
			samples[m[1]] = col
			order = append(order, m[1])
		}
		col.ns = append(col.ns, ns)
		col.bytes = appendColumn(col.bytes, bytesCol, line)
		col.allocs = appendColumn(col.allocs, allocsCol, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading stdin: %w", err)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	entries := make([]Entry, 0, len(order))
	for _, name := range order {
		col := samples[name]
		med := median(col.ns)
		perSec := 0.0
		if med > 0 {
			perSec = 1e9 / med
		}
		entries = append(entries, Entry{
			Name:              name,
			Samples:           len(col.ns),
			MedianNsPerOp:     med,
			PerSec:            perSec,
			MedianBytesPerOp:  medianOrNil(col.bytes),
			MedianAllocsPerOp: medianOrNil(col.allocs),
		})
	}
	return entries, nil
}

// appendColumn appends the value of the column re matches in line, if any.
func appendColumn(xs []float64, re *regexp.Regexp, line string) []float64 {
	if m := re.FindStringSubmatch(line); m != nil {
		if v, err := strconv.ParseFloat(m[1], 64); err == nil {
			return append(xs, v)
		}
	}
	return xs
}

func medianOrNil(xs []float64) *float64 {
	if len(xs) == 0 {
		return nil
	}
	m := median(xs)
	return &m
}

// loadDoc reads and decodes one summary file.
func loadDoc(path string) (Doc, error) {
	var d Doc
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// perSecOf finds the guarded benchmark's per_sec in a summary.
func perSecOf(d Doc, name string) (float64, bool) {
	for _, e := range d.Benchmarks {
		if e.Name == name {
			return e.PerSec, true
		}
	}
	return 0, false
}

// runGuard is the compare mode: it returns the process exit code so the
// decision table (new-benchmark pass, vanished-benchmark fail, drop-beyond-
// threshold fail) is unit-testable without forking the binary.
func runGuard(w io.Writer, baselinePath, currentPath, guard string, maxDropPct float64) int {
	if currentPath == "" || guard == "" {
		fmt.Fprintln(w, "renuca-benchjson: -baseline requires -current and -guard")
		return 2
	}
	if maxDropPct < 0 {
		fmt.Fprintf(w, "renuca-benchjson: -max-drop-pct %v must be non-negative\n", maxDropPct)
		return 2
	}
	base, err := loadDoc(baselinePath)
	if err != nil {
		fmt.Fprintln(w, "renuca-benchjson: baseline:", err)
		return 1
	}
	cur, err := loadDoc(currentPath)
	if err != nil {
		fmt.Fprintln(w, "renuca-benchjson: current:", err)
		return 1
	}
	curPS, ok := perSecOf(cur, guard)
	if !ok {
		fmt.Fprintf(w, "renuca-benchjson: guard FAIL: %s missing from %s\n", guard, currentPath)
		return 1
	}
	basePS, ok := perSecOf(base, guard)
	if !ok {
		fmt.Fprintf(w, "renuca-benchjson: guard: %s not in baseline %s yet; passing\n", guard, baselinePath)
		return 0
	}
	if basePS <= 0 {
		fmt.Fprintf(w, "renuca-benchjson: guard: baseline per_sec %v unusable; passing\n", basePS)
		return 0
	}
	dropPct := (basePS - curPS) / basePS * 100
	if dropPct > maxDropPct {
		fmt.Fprintf(w, "renuca-benchjson: guard FAIL: %s per_sec %.4f is %.1f%% below baseline %.4f (max allowed drop %.1f%%)\n",
			guard, curPS, dropPct, basePS, maxDropPct)
		return 1
	}
	// curPS/basePS*100-100 rather than -dropPct: the latter is IEEE -0.0
	// for identical figures and would print a spurious "-0.0%".
	fmt.Fprintf(w, "renuca-benchjson: guard OK: %s per_sec %.4f vs baseline %.4f (%+.1f%%, max allowed drop %.1f%%)\n",
		guard, curPS, basePS, curPS/basePS*100-100, maxDropPct)
	return 0
}

func main() {
	out := flag.String("o", "BENCH.json", "output path for the JSON summary")
	baseline := flag.String("baseline", "", "baseline summary for compare mode (skips stdin parsing)")
	current := flag.String("current", "", "current summary to check against -baseline")
	guard := flag.String("guard", "", "benchmark whose per_sec the compare mode protects")
	maxDrop := flag.Float64("max-drop-pct", 10, "largest allowed per_sec drop below baseline, in percent")
	flag.Parse()

	if *baseline != "" {
		os.Exit(runGuard(os.Stderr, *baseline, *current, *guard, *maxDrop))
	}

	w := bufio.NewWriter(os.Stdout)
	entries, err := summarize(os.Stdin, w)
	w.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-benchjson:", err)
		os.Exit(1)
	}
	doc := Doc{Benchmarks: entries}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "renuca-benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "renuca-benchjson: wrote %s (%d benchmarks)\n", *out, len(doc.Benchmarks))
}
