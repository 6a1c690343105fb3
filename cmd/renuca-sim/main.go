// Command renuca-sim runs one NUCA policy on one workload and prints the
// full statistics breakdown: per-core IPC/WPKI/MPKI, per-bank writes and
// lifetimes, LLC/NoC/DRAM/TLB/predictor counters.
//
// Usage:
//
//	renuca-sim -policy renuca -workload WL1
//	renuca-sim -policy snuca -apps mcf,hmmer,...   (16 names)
//	renuca-sim -policy rnuca -workload WL3 -instr 1000000
//	renuca-sim -all -workload WL1                  (all 5 policies, in parallel)
//	renuca-sim -all -workload WL1 -shards 4        (all 5 policies, 4 worker processes)
//
// With -all, the five policies simulate concurrently on a bounded worker
// pool (RENUCA_WORKERS or -workers, default one per CPU) and a comparison
// table prints in the paper's policy order; the numbers are identical for
// any worker count. With -shards N (or RENUCA_SHARDS), the simulations run
// on N supervised worker processes instead — same bytes on stdout; the
// wall-clock banner goes to stderr so outputs diff cleanly across modes.
//
// A single run's breakdown includes a "bank queue:" line: the reads and
// writes that waited for a busy LLC bank within the 64-cycle contention
// window, their summed wait cycles, and the requests that slipped past a
// bank busy beyond it.
//
// The Table I hardware knobs are flags too, for both run modes: -l2 and
// -l3bank (bytes), -rob (entries), -threshold (criticality percent),
// -intrabank-wl and -write-latency (cycles). Zero keeps the paper's
// configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/nuca"
	"repro/internal/pool"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

func parsePolicy(s string) (nuca.Policy, error) {
	switch strings.ToLower(s) {
	case "snuca", "s-nuca":
		return nuca.SNUCA, nil
	case "rnuca", "r-nuca":
		return nuca.RNUCA, nil
	case "private":
		return nuca.PrivateLLC, nil
	case "naive":
		return nuca.NaiveWL, nil
	case "renuca", "re-nuca":
		return nuca.ReNUCA, nil
	}
	return 0, fmt.Errorf("unknown policy %q (snuca|rnuca|private|naive|renuca)", s)
}

func main() {
	policyFlag := flag.String("policy", "renuca", "NUCA policy: snuca|rnuca|private|naive|renuca")
	wlFlag := flag.String("workload", "WL1", "standard workload name (WL1..WL10)")
	appsFlag := flag.String("apps", "", "comma-separated app names, one per core (overrides -workload)")
	instr := flag.Uint64("instr", 400_000, "measured instructions per core")
	warmup := flag.Uint64("warmup", 150_000, "warmup instructions per core")
	seed := flag.Uint64("seed", 1, "simulation seed")
	threshold := flag.Float64("threshold", 10, "criticality threshold x% (default: the calibrated knee)")
	l2 := flag.Uint64("l2", 0, "L2 size in bytes (0 = Table I 256KB)")
	l3bank := flag.Uint64("l3bank", 0, "L3 bank size in bytes (0 = Table I 2MB)")
	rob := flag.Int("rob", 0, "ROB entries per core (0 = Table I 128)")
	intraWL := flag.Bool("intrabank-wl", false, "enable the i2wap-style intra-bank wear-leveling extension")
	writeLat := flag.Uint("write-latency", 0, "ReRAM array write latency in cycles (0 = read latency)")
	listWL := flag.Bool("list-workloads", false, "print the standard workload mixes and exit")
	all := flag.Bool("all", false, "run all five policies on the workload, in parallel, and print a comparison")
	workers := flag.Int("workers", 0, "max concurrent simulations with -all (0 = RENUCA_WORKERS or one per CPU)")
	shards := flag.Int("shards", 0, "with -all: run simulations on N worker processes (0 = RENUCA_SHARDS or in-process)")
	shardWorker := flag.Bool("shard-worker", false, "(internal) run as a shard worker: units on stdin, results on stdout")
	flag.Parse()

	if *shardWorker {
		if err := shard.RunWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "renuca-sim:", err)
			os.Exit(1)
		}
		return
	}

	if *listWL {
		for _, wl := range workload.Standard(16) {
			high, med, low := wl.Intensities()
			fmt.Printf("%-5s (high=%d med=%d low=%d): %s\n", wl.Name, high, med, low, strings.Join(wl.Apps, " "))
		}
		return
	}

	policy, err := parsePolicy(*policyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(1)
	}

	var apps []string
	wlName := *wlFlag
	if *appsFlag != "" {
		apps = strings.Split(*appsFlag, ",")
		for i := range apps {
			apps[i] = strings.TrimSpace(apps[i])
		}
		wlName = "custom"
	} else {
		wl, err := workload.ByName(*wlFlag, 16)
		if err != nil {
			fmt.Fprintln(os.Stderr, "renuca-sim:", err)
			os.Exit(1)
		}
		apps = wl.Apps
	}

	// One fully-resolved Options carries every knob for both run modes;
	// core.NewSystem/core.RunUnit translate it, so a new knob plumbed
	// there is automatically live here (optflow enforces this).
	o := core.DefaultOptions(policy)
	o.Apps = apps
	o.InstrPerCore = *instr
	o.Warmup = *warmup
	o.Seed = *seed
	o.CriticalityThresholdPct = *threshold
	o.L2Bytes = *l2
	o.L3BankBytes = *l3bank
	o.ROBEntries = *rob
	o.IntraBankWL = *intraWL
	o.ReRAMWriteLatency = uint32(*writeLat)

	if *all {
		runAllPolicies(wlName, o, *workers, pool.DefaultShards(*shards))
		return
	}

	s, err := core.NewSystem(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(1)
	}
	res, err := s.RunMeasured(*warmup, *instr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(1)
	}

	fmt.Printf("policy=%s instr/core=%d cycles=%d mean IPC=%.3f min lifetime=%.2fy write imbalance=%.2f\n\n",
		res.Policy, *instr, res.MeasuredCycles, res.MeanIPC, res.MinLifetime, res.WriteImbalance)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "core\tapp\tIPC\tWPKI\tMPKI\tTLBmiss\tnoncrit-loads\tpred-acc")
	for i := range apps {
		ctr := s.Counters(i)
		fmt.Fprintf(w, "%d\t%s\t%.3f\t%.2f\t%.2f\t%d\t%.1f%%\t%.1f%%\n",
			i, apps[i], res.IPC[i], res.WPKI[i], res.MPKI[i], ctr.TLBMisses,
			100*res.NonCriticalLoadFrac[i], 100*res.PredictorAccuracy[i])
	}
	w.Flush()

	fmt.Println()
	wb := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(wb, "bank\twrites\tmax-frame\tlifetime[y]")
	wear := s.LLC().Wear()
	for b := range res.BankLifetimes {
		fmt.Fprintf(wb, "CB-%d\t%d\t%d\t%.2f\n",
			b, wear.BankWrites(b), wear.MaxFrameWrites(b), res.BankLifetimes[b])
	}
	wb.Flush()

	llc := res.LLC
	fmt.Printf("\nLLC: read hits=%d misses=%d writebacks=%d (hit %d) fills=%d crit-fills=%d noncrit-fills=%d fallback probes=%d hits=%d\n",
		llc.ReadHits, llc.ReadMisses, llc.Writebacks, llc.WritebackHits, llc.Fills,
		llc.CriticalFills, llc.NonCriticalFills, llc.FallbackProbes, llc.FallbackHits)
	q := llc.Queue
	fmt.Printf("bank queue: reads queued=%d (%d wait cycles) writes queued=%d (%d wait cycles) slipped=%d\n",
		q.ReadQueued, q.ReadWaitCycles, q.WriteQueued, q.WriteWaitCycles, q.Slipped)
	ns := s.Mesh().Stats()
	fmt.Printf("NoC: messages=%d hops=%d stall-cycles=%d\n", ns.Messages, ns.TotalHops, ns.StallCycles)
	ds := s.DRAM().Stats()
	fmt.Printf("DRAM: reads=%d writes=%d row hit/miss/conflict=%d/%d/%d queue-cycles=%d\n",
		ds.Reads, ds.Writes, ds.RowHits, ds.RowMisses, ds.RowConflicts, ds.QueueCycles)
	cs := s.Directory().Stats()
	fmt.Printf("MESI: readmiss=%d writemiss=%d inval=%d shootdowns=%d\n",
		cs.ReadMisses, cs.WriteMisses, cs.Invalidations, cs.Shootdowns)
	var tlbMiss, tlbLost uint64
	for i := range apps {
		ts := s.TLB(i).Stats()
		tlbMiss += ts.Misses
		tlbLost += ts.LostMappingBits
	}
	fmt.Printf("TLB: misses=%d lost mapping bits=%d\n", tlbMiss, tlbLost)
	fmt.Printf("bank lifetimes h-mean=%.2fy min=%.2fy max=%.2fy\n",
		stats.HarmonicMean(res.BankLifetimes), stats.Min(res.BankLifetimes), stats.Max(res.BankLifetimes))
}

// runAllPolicies simulates the workload under all five NUCA policies and
// prints a comparison table in the paper's policy order. Each policy is a
// core.Unit carrying the caller's fully-resolved base Options (same seed
// and knobs, only the policy varies), executed either on the in-process
// worker pool or — with shards > 0 — on supervised worker processes via
// the shard coordinator. Both modes file reports positionally and print the identical table, so they
// diff clean on stdout (wall-clock and supervision chatter go to stderr).
func runAllPolicies(wlName string, base core.Options, workers, shards int) {
	policies := nuca.Policies()
	units := make([]core.Unit, len(policies))
	for i, p := range policies {
		o := base
		o.Policy = p
		units[i] = core.Unit{ID: "all/" + p.String() + "/" + wlName, Workload: wlName, Opts: o}
	}
	reports := make([]core.Report, len(units))
	start := time.Now() //lint:allow nondeterminism banner reports wall-clock; results are seed-pure
	var mode string
	if shards > 0 {
		cmdline, err := shard.SelfCommand("-shard-worker")
		if err != nil {
			fmt.Fprintln(os.Stderr, "renuca-sim:", err)
			os.Exit(1)
		}
		coord := &shard.Coordinator{
			Shards:  shards,
			Command: cmdline,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			},
		}
		reps, err := coord.RunUnits(units)
		if err != nil {
			fmt.Fprintln(os.Stderr, "renuca-sim:", err)
			os.Exit(1)
		}
		copy(reports, reps)
		mode = fmt.Sprintf("shards=%d", shards)
	} else {
		pl := pool.New(pool.DefaultWorkers(workers))
		reps, err := core.RunUnitsOn(pl, units)
		if err != nil {
			fmt.Fprintln(os.Stderr, "renuca-sim:", err)
			os.Exit(1)
		}
		copy(reports, reps)
		mode = fmt.Sprintf("workers=%d", pl.Size())
	}

	fmt.Fprintf(os.Stderr, "# all policies, instr/core=%d %s wall=%s\n",
		base.InstrPerCore, mode, //lint:allow nondeterminism banner reports wall-clock; results are seed-pure
		time.Since(start).Round(time.Millisecond))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tmean IPC\tmin life[y]\th-mean life[y]\twrite imbalance\tLLC writes")
	for _, rep := range reports {
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.2f\t%.2f\t%d\n",
			rep.Policy, rep.MeanIPC, rep.MinLifetime,
			stats.HarmonicMean(rep.BankLifetimes), rep.WriteImbalance, rep.LLCWrites())
	}
	w.Flush()
}
