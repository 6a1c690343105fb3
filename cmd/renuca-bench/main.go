// Command renuca-bench regenerates the paper's evaluation: every table and
// figure of Section V, printed as text tables with the paper's reference
// values alongside.
//
// Usage:
//
//	renuca-bench -exp all              # everything (several minutes)
//	renuca-bench -exp fig3             # one experiment
//	renuca-bench -list                 # list experiment ids
//	renuca-bench -workers 8            # cap simulation concurrency
//	RENUCA_INSTR=200000 renuca-bench   # scale the measured windows
//	renuca-bench -exp fig4 -workers 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments run one after another, in the order given, and each prints
// as soon as it finishes. An experiment's independent simulations run as
// one batch over a bounded worker pool (RENUCA_WORKERS or -workers, default
// one worker per CPU), and experiments that share simulation suites reuse
// them through the Runner's memoisation. Output order and content are
// identical for every worker count.
//
// Scale knobs (environment): RENUCA_INSTR, RENUCA_WARMUP (16-core runs),
// RENUCA_CHAR_INSTR, RENUCA_CHAR_WARMUP (single-core characterisation),
// RENUCA_SEED, RENUCA_WORKERS.
//
// Hardware is not a knob here: every run simulates the paper's Table I
// and Table III configurations, and each ablation sets the knob it
// sweeps. For one-off hardware runs, use renuca-sim's flags (-l2,
// -l3bank, -rob, -threshold, -intrabank-wl, -write-latency).
//
// A malformed knob, a set removed knob (RENUCA_L2, RENUCA_L3BANK,
// RENUCA_ROB, RENUCA_THRESHOLD, RENUCA_INTRABANK_WL, RENUCA_WRITE_LAT,
// RENUCA_QUEUE, RENUCA_CWINDOW) or a negative -workers exits 2 with a
// one-line message naming it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

// checkWorkers rejects a negative -workers; zero selects RENUCA_WORKERS or
// one worker per CPU.
func checkWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers %d: must be 0 (auto) or positive", n)
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	quiet := flag.Bool("q", false, "suppress progress logging")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = RENUCA_WORKERS or one per CPU)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	if err := checkWorkers(*workers); err != nil {
		fmt.Fprintln(os.Stderr, "renuca-bench:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "renuca-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "renuca-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "renuca-bench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "renuca-bench:", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}

	params, err := experiments.ParamsFromEnv(experiments.DefaultParams())
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-bench:", strings.ReplaceAll(err.Error(), "\n", "; "))
		os.Exit(2)
	}
	if *workers > 0 {
		params.Workers = *workers
	}
	r := experiments.NewRunner(params)
	if !*quiet {
		r.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "renuca-bench:", err)
				os.Exit(1)
			}
			todo = append(todo, e)
		}
	}

	start := time.Now() //lint:allow nondeterminism harness banner reports wall-clock and sims/sec
	for _, e := range todo {
		out, err := e.Run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "renuca-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s ====\n%s\n", e.Title, out)
	}
	if !*quiet {
		elapsed := time.Since(start) //lint:allow nondeterminism harness banner reports wall-clock and sims/sec
		sims := r.Sims()
		fmt.Fprintf(os.Stderr, "# total %s  (%d sims, %.1f sims/sec, workers=%d)\n",
			elapsed.Round(time.Millisecond), sims,
			float64(sims)/elapsed.Seconds(), r.Workers())
	}
}
