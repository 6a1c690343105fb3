// Command renuca-benchjson turns `go test -bench` text output into a
// machine-readable benchmark summary. It tees stdin through to stdout
// unchanged (so the human-readable bench log still shows in the terminal
// and in CI) while parsing benchmark result lines, and writes a JSON
// document with the median ns/op and derived ops/sec for every benchmark
// seen, plus the median B/op and allocs/op where the lines report them —
// medians because with -count>1 the repeated lines of one benchmark fold
// into a single robust figure. Each median is recorded with the min and max
// of its samples, and the document carries a fingerprint of the host that
// produced it (CPU model, CPU count, GOMAXPROCS, Go version) and the host's
// 1-minute load average when it was written (load1, from /proc/loadavg).
// The load is not part of the fingerprint: two runs on one host under
// different load are still comparable, only noisier, so the guard prints
// both loads beside every verdict instead of refusing.
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
// summary missing it fails (the benchmark silently vanished). Two
// summaries whose host fingerprints differ, or either of which has none,
// are not compared: the guard exits 2, because a gap between two hosts says
// nothing about the code. When -baseline is given, stdin is not read.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
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
	// MedianNsPerOp is the median ns/op over the samples, and MinNsPerOp
	// and MaxNsPerOp their extremes.
	MedianNsPerOp float64 `json:"median_ns_per_op"`
	MinNsPerOp    float64 `json:"min_ns_per_op"`
	MaxNsPerOp    float64 `json:"max_ns_per_op"`
	// PerSec is 1e9 / MedianNsPerOp — operations per second; for the
	// whole-simulation benchmarks, simulations per second.
	PerSec float64 `json:"per_sec"`
	// The B/op and allocs/op columns' median, min and max over the
	// samples that carry them, absent when none does. They are pointers
	// so a measured 0 is still recorded.
	MedianBytesPerOp  *float64 `json:"median_bytes_per_op,omitempty"`
	MinBytesPerOp     *float64 `json:"min_bytes_per_op,omitempty"`
	MaxBytesPerOp     *float64 `json:"max_bytes_per_op,omitempty"`
	MedianAllocsPerOp *float64 `json:"median_allocs_per_op,omitempty"`
	MinAllocsPerOp    *float64 `json:"min_allocs_per_op,omitempty"`
	MaxAllocsPerOp    *float64 `json:"max_allocs_per_op,omitempty"`
}

// Host fingerprints the machine and toolchain a summary came from.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Doc is the written BENCH.json shape. Host is absent from summaries
// written before fingerprints were recorded, and Load1 from those written
// before loads were, or on a host without /proc/loadavg.
type Doc struct {
	Host       *Host    `json:"host,omitempty"`
	Load1      *float64 `json:"load1,omitempty"`
	Benchmarks []Entry  `json:"benchmarks"`
}

// fingerprint describes this host. The summarizer runs on the host and
// toolchain that ran the benchmarks it reads (make bench pipes one into
// the other), so this is their fingerprint too.
func fingerprint() *Host {
	return &Host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// load1 reads the 1-minute load average from /proc/loadavg, or nil.
func load1() *float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return nil
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return nil
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return nil
	}
	return &v
}

// spread returns the median, min and max of xs, which it sorts.
func spread(xs []float64) (med, lo, hi float64) {
	sort.Float64s(xs)
	n := len(xs)
	med = xs[n/2]
	if n%2 == 0 {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	return med, xs[0], xs[n-1]
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
		med, lo, hi := spread(col.ns)
		perSec := 0.0
		if med > 0 {
			perSec = 1e9 / med
		}
		e := Entry{
			Name:          name,
			Samples:       len(col.ns),
			MedianNsPerOp: med,
			MinNsPerOp:    lo,
			MaxNsPerOp:    hi,
			PerSec:        perSec,
		}
		e.MedianBytesPerOp, e.MinBytesPerOp, e.MaxBytesPerOp = spreadOrNil(col.bytes)
		e.MedianAllocsPerOp, e.MinAllocsPerOp, e.MaxAllocsPerOp = spreadOrNil(col.allocs)
		entries = append(entries, e)
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

// spreadOrNil is spread for an optional column: all nil when it is empty.
func spreadOrNil(xs []float64) (med, lo, hi *float64) {
	if len(xs) == 0 {
		return nil, nil, nil
	}
	m, l, h := spread(xs)
	return &m, &l, &h
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
	// Every verdict line ends with both hosts' loads, so a reader can tell
	// a verdict taken on a busy host.
	loads := fmt.Sprintf("; load1 baseline %s, current %s", describeLoad(base.Load1), describeLoad(cur.Load1))
	if base.Host == nil || cur.Host == nil || *base.Host != *cur.Host {
		fmt.Fprintf(w, "renuca-benchjson: guard refused: host fingerprints differ (baseline %s, current %s); compare summaries from one host%s\n",
			describeHost(base.Host), describeHost(cur.Host), loads)
		return 2
	}
	curPS, ok := perSecOf(cur, guard)
	if !ok {
		fmt.Fprintf(w, "renuca-benchjson: guard FAIL: %s missing from %s%s\n", guard, currentPath, loads)
		return 1
	}
	basePS, ok := perSecOf(base, guard)
	if !ok {
		fmt.Fprintf(w, "renuca-benchjson: guard: %s not in baseline %s yet; passing%s\n", guard, baselinePath, loads)
		return 0
	}
	if basePS <= 0 {
		fmt.Fprintf(w, "renuca-benchjson: guard: baseline per_sec %v unusable; passing%s\n", basePS, loads)
		return 0
	}
	dropPct := (basePS - curPS) / basePS * 100
	if dropPct > maxDropPct {
		fmt.Fprintf(w, "renuca-benchjson: guard FAIL: %s per_sec %.4f is %.1f%% below baseline %.4f (max allowed drop %.1f%%)%s\n",
			guard, curPS, dropPct, basePS, maxDropPct, loads)
		return 1
	}
	// curPS/basePS*100-100 rather than -dropPct: the latter is IEEE -0.0
	// for identical figures and would print a spurious "-0.0%".
	fmt.Fprintf(w, "renuca-benchjson: guard OK: %s per_sec %.4f vs baseline %.4f (%+.1f%%, max allowed drop %.1f%%)%s\n",
		guard, curPS, basePS, curPS/basePS*100-100, maxDropPct, loads)
	return 0
}

// describeLoad renders a summary's load1 for the guard's verdict lines.
func describeLoad(v *float64) string {
	if v == nil {
		return "none recorded"
	}
	return strconv.FormatFloat(*v, 'f', 2, 64)
}

// describeHost renders a fingerprint for the guard's refusal message.
func describeHost(h *Host) string {
	if h == nil {
		return "none recorded"
	}
	return fmt.Sprintf("%q nproc=%d GOMAXPROCS=%d %s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
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
	doc := Doc{Host: fingerprint(), Load1: load1(), Benchmarks: entries}
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
