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
// Experiments launch concurrently: independent simulations fan out over a
// bounded worker pool (RENUCA_WORKERS or -workers, default one worker per
// CPU) while experiments that share simulation suites deduplicate through
// the Runner's singleflight memoisation. Output order and content are
// identical for every worker count.
//
// With -shards N (or RENUCA_SHARDS), the 16-core suite simulations are
// dispatched to N supervised worker processes (the binary re-executing
// itself in its hidden -shard-worker mode) instead of in-process worker
// goroutines; stdout is byte-identical either way at the same seed.
// Characterisation runs and sweeps stay in-process.
//
// Scale knobs (environment): RENUCA_INSTR, RENUCA_WARMUP (16-core runs),
// RENUCA_CHAR_INSTR, RENUCA_CHAR_WARMUP (single-core characterisation),
// RENUCA_SEED, RENUCA_WORKERS, RENUCA_SHARDS.
//
// Hardware knobs (environment, zero/unset = the paper's Table I values):
// RENUCA_L2, RENUCA_L3BANK (bytes), RENUCA_ROB (entries), RENUCA_THRESHOLD
// (criticality percent), RENUCA_INTRABANK_WL=1 and RENUCA_WRITE_LAT
// (cycles). They override every 16-core simulation the run executes: the
// policy suites, the ablations (except the knob an ablation sweeps) and
// the energy study. The Runner folds them into its memo keys so
// differently-configured runs can never share a cached suite.
//
// A malformed knob, or a set knob of the removed FIFO bank-timing model,
// exits 2 with a one-line message naming it.
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
	"repro/internal/pool"
	"repro/internal/shard"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	quiet := flag.Bool("q", false, "suppress progress logging")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = RENUCA_WORKERS or one per CPU)")
	shards := flag.Int("shards", 0, "run suite simulations on N worker processes (0 = RENUCA_SHARDS or in-process)")
	shardWorker := flag.Bool("shard-worker", false, "(internal) run as a shard worker: units on stdin, results on stdout")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *shardWorker {
		if err := shard.RunWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "renuca-bench:", err)
			os.Exit(1)
		}
		return
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

	params, err := experiments.ParamsFromEnv()
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
	nShards := pool.DefaultShards(*shards)
	if nShards > 0 {
		cmdline, err := shard.SelfCommand("-shard-worker")
		if err != nil {
			fmt.Fprintln(os.Stderr, "renuca-bench:", err)
			os.Exit(1)
		}
		r.Exec = &shard.Coordinator{
			Shards:  nShards,
			Command: cmdline,
			Log:     r.Log,
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
	// Launch every experiment at once: each goroutine only coordinates —
	// its simulations gate on the Runner's shared worker pool, and shared
	// suites run once via singleflight. Results print in paper order as
	// they complete.
	outs := make([]string, len(todo))
	errs := make([]error, len(todo))
	done := make([]chan struct{}, len(todo))
	for i, e := range todo {
		done[i] = make(chan struct{})
		go func(i int, e experiments.Experiment) {
			defer close(done[i])
			outs[i], errs[i] = e.Run(r)
		}(i, e)
	}
	for i, e := range todo {
		<-done[i]
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "renuca-bench: %s: %v\n", e.ID, errs[i])
			os.Exit(1)
		}
		fmt.Printf("==== %s ====\n%s\n", e.Title, outs[i])
	}
	if !*quiet {
		elapsed := time.Since(start) //lint:allow nondeterminism harness banner reports wall-clock and sims/sec
		sims := r.Sims()
		fmt.Fprintf(os.Stderr, "# total %s  (%d sims, %.1f sims/sec, workers=%d)\n",
			elapsed.Round(time.Millisecond), sims,
			float64(sims)/elapsed.Seconds(), r.Workers())
	}
}
