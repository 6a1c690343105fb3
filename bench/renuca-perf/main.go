// Command renuca-perf is the repository's end-to-end benchmark. It measures
// how fast the simulator turns the paper's workloads into results — host
// time, not simulated time — and checks every result it produces. A
// separate traced invocation attributes host time to the simulator's
// layers: it drives one unit's cores itself, records the generator and
// memory-hierarchy traffic, and replays each layer alone.
//
// Usage:
//
//	renuca-perf -workload paper-suite [-seed 1] [-seconds 30] [-reps 5] [-trace 0|1]
//
// Standard output ends with two JSON lines: a detail record (host
// fingerprint, sample distributions, sim_digest), then the result object
// with the keys correct, attempted, failed and metrics. The command exits
// non-zero when an argument is bad or any correctness check fails. See
// bench/README.md for the metrics, the workloads and how to compare two
// commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's resolved settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // budget for the warm rep and the timed rounds; at least reps rounds run regardless
	reps     int     // minimum number of timed rounds
	trace    bool
	workers  int

	// scale divides every unit's warmup and measured windows (1 = the
	// workloads as defined) and setupPerRep is how many core.NewSystem
	// calls each round adds to setup_s's sample. Only tests change either.
	scale       uint64
	setupPerRep int
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("renuca-perf", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are reported by the caller on one line
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for every unit's Options.Seed")
	seconds := fs.Int("seconds", 30, "time budget for the warm rep and the timed rounds, in seconds")
	reps := fs.Int("reps", 5, "minimum number of timed rounds")
	traced := fs.Int("trace", 0, "1 runs the traced layer-attribution pass instead of the timed reps")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	switch {
	case fs.NArg() > 0:
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *name == "":
		return config{}, fmt.Errorf("-workload is required (one of %s)", strings.Join(workloadNames(), ", "))
	case specByName(*name) == nil:
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *reps < 1:
		return config{}, fmt.Errorf("-reps %d: need at least one timed rep", *reps)
	case *seconds < 1:
		return config{}, fmt.Errorf("-seconds %d: need at least one second", *seconds)
	case *traced != 0 && *traced != 1:
		return config{}, fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	return config{
		workload:    *name,
		seed:        *seed,
		seconds:     float64(*seconds),
		reps:        *reps,
		trace:       *traced == 1,
		workers:     runtime.NumCPU(),
		scale:       1,
		setupPerRep: 30,
	}, nil
}

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result object, printed as the last line of stdout.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one invocation prints.
type report struct {
	detail  detail
	outcome outcome
}

// detail is the context a reader needs to trust the metrics: where they
// were measured, how they were distributed, and what the simulator said.
type detail struct {
	Workload    string   `json:"workload"`
	Why         string   `json:"why"`
	Seed        uint64   `json:"seed"`
	Traced      bool     `json:"traced"`
	Host        host     `json:"host"`
	WarmupInstr uint64   `json:"warmup_instr_per_core"`
	Instr       uint64   `json:"instr_per_core"`
	ColdCaches  bool     `json:"cold_caches"`
	Units       int      `json:"units_per_rep"`
	Failures    []string `json:"failures,omitempty"`

	// Untraced run.
	SimDigest     string  `json:"sim_digest,omitempty"`
	InstrPerRep   uint64  `json:"instr_per_rep,omitempty"`
	SimMinstrPerS *spread `json:"sim_minstr_per_s,omitempty"`
	SetupS        *spread `json:"setup_s,omitempty"`
	PeakRSSMB     *spread `json:"peak_rss_mb,omitempty"`
	FailedFrac    float64 `json:"failed_frac"`

	// Traced run.
	TracedUnits []string `json:"traced_units,omitempty"`
}

func run(cfg config) (report, error) {
	sp := specByName(cfg.workload)
	if cfg.trace {
		return traced(cfg, sp)
	}
	return untraced(cfg, sp)
}

func (r report) write(w io.Writer) error {
	d, err := json.Marshal(r.detail)
	if err != nil {
		return fmt.Errorf("encoding detail: %w", err)
	}
	o, err := json.Marshal(r.outcome)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, o)
	return err
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "renuca-perf:", err)
		return 2
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "renuca-perf:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "renuca-perf:", err)
		return 1
	}
	if !rep.outcome.Correct {
		fmt.Fprintf(stderr, "renuca-perf: %d of %d units failed: %s\n", rep.outcome.Failed, rep.outcome.Attempted,
			strings.Join(rep.detail.Failures, "; "))
		return 1
	}
	return 0
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// now is the benchmark's only clock read: every duration it reports is
// host wall-clock time by design.
func now() time.Time {
	return time.Now() //lint:allow nondeterminism benchmark timings are host wall-clock by design
}

// secondsSince returns the host time elapsed since t0.
func secondsSince(t0 time.Time) float64 { return now().Sub(t0).Seconds() }
