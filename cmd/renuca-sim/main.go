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
//
// With -all, the five policies simulate concurrently on a bounded worker
// pool (RENUCA_WORKERS or -workers, default one per CPU) and a comparison
// table prints in the paper's policy order; the numbers are identical for
// any worker count. The wall-clock banner goes to stderr so outputs diff
// cleanly across worker counts. Without -workers, a RENUCA_WORKERS that is
// not a positive integer makes -all exit 2 with one line naming it.
//
// A single run's breakdown includes a "bank queue:" line: the reads and
// writes that waited for a busy LLC bank within the 64-cycle contention
// window, their summed wait cycles, and the requests that slipped past a
// bank busy beyond it.
//
// The Table I hardware knobs are flags, for both run modes, and only here
// (renuca-bench runs the paper's configurations): -l2 and -l3bank (bytes),
// -rob (entries), -threshold (criticality percent), -intrabank-wl and
// -write-latency (cycles). Zero keeps the paper's configuration.
//
// A bad flag value exits 2 with one line naming the flag: an unknown
// -policy or -workload, -instr 0, a negative -workers, or a -write-latency
// above 2^32-1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/nuca"
	"repro/internal/pool"
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

// simArgs is renuca-sim's parsed command line: one fully-resolved
// core.Options carrying every knob for both run modes, plus the run mode.
type simArgs struct {
	opts     core.Options
	workload string // the workload's name, "custom" with -apps
	listWL   bool
	all      bool
	workers  int
}

// parseArgs parses renuca-sim's arguments (without the program name). A
// bad value is an error naming its flag. core.NewSystem and core.RunUnit
// translate the Options, so a knob plumbed there is live here once a flag
// sets it; TestFlagsSetEveryOption checks that the flags reach every field.
func parseArgs(args []string) (simArgs, error) {
	fs := flag.NewFlagSet("renuca-sim", flag.ContinueOnError)
	policyFlag := fs.String("policy", "renuca", "NUCA policy: snuca|rnuca|private|naive|renuca")
	wlFlag := fs.String("workload", "WL1", "standard workload name (WL1..WL10)")
	appsFlag := fs.String("apps", "", "comma-separated app names, one per core (overrides -workload)")
	instr := fs.Uint64("instr", 400_000, "measured instructions per core")
	warmup := fs.Uint64("warmup", 150_000, "warmup instructions per core")
	seed := fs.Uint64("seed", 1, "simulation seed")
	threshold := fs.Float64("threshold", 10, "criticality threshold x% (default: the calibrated knee)")
	l2 := fs.Uint64("l2", 0, "L2 size in bytes (0 = Table I 256KB)")
	l3bank := fs.Uint64("l3bank", 0, "L3 bank size in bytes (0 = Table I 2MB)")
	rob := fs.Int("rob", 0, "ROB entries per core (0 = Table I 128)")
	intraWL := fs.Bool("intrabank-wl", false, "enable the i2wap-style intra-bank wear-leveling extension")
	writeLat := fs.Uint64("write-latency", 0, "ReRAM array write latency in cycles (0 = read latency)")
	listWL := fs.Bool("list-workloads", false, "print the standard workload mixes and exit")
	all := fs.Bool("all", false, "run all five policies on the workload, in parallel, and print a comparison")
	workers := fs.Int("workers", 0, "max concurrent simulations with -all (0 = RENUCA_WORKERS or one per CPU)")
	if err := fs.Parse(args); err != nil {
		return simArgs{}, err
	}
	a := simArgs{workload: *wlFlag, listWL: *listWL, all: *all, workers: *workers}
	if a.listWL {
		return a, nil
	}
	switch {
	case *instr == 0:
		return a, errors.New("-instr 0: must be positive")
	case *workers < 0:
		return a, fmt.Errorf("-workers %d: must be 0 (auto) or positive", *workers)
	case *writeLat > math.MaxUint32:
		return a, fmt.Errorf("-write-latency %d: exceeds the 32-bit maximum %d", *writeLat, uint32(math.MaxUint32))
	}
	policy, err := parsePolicy(*policyFlag)
	if err != nil {
		return a, fmt.Errorf("-policy: %w", err)
	}

	o := core.DefaultOptions(policy)
	if *appsFlag != "" {
		o.Apps = strings.Split(*appsFlag, ",")
		for i := range o.Apps {
			o.Apps[i] = strings.TrimSpace(o.Apps[i])
		}
		a.workload = "custom"
	} else {
		wl, err := workload.ByName(*wlFlag, 16)
		if err != nil {
			return a, fmt.Errorf("-workload: %w", err)
		}
		o.Apps = wl.Apps
	}
	o.InstrPerCore = *instr
	o.Warmup = *warmup
	o.Seed = *seed
	o.CriticalityThresholdPct = *threshold
	o.L2Bytes = *l2
	o.L3BankBytes = *l3bank
	o.ROBEntries = *rob
	o.IntraBankWL = *intraWL
	o.ReRAMWriteLatency = uint32(*writeLat)
	a.opts = o
	return a, nil
}

func main() {
	a, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(2)
	}

	if a.listWL {
		for _, wl := range workload.Standard(16) {
			high, med, low := wl.Intensities()
			fmt.Printf("%-5s (high=%d med=%d low=%d): %s\n", wl.Name, high, med, low, strings.Join(wl.Apps, " "))
		}
		return
	}

	o := a.opts
	if a.all {
		runAllPolicies(a.workload, o, a.workers)
		return
	}

	s, err := core.NewSystem(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(1)
	}
	res, err := s.RunMeasured(o.Warmup, o.InstrPerCore)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(1)
	}

	fmt.Printf("policy=%s instr/core=%d cycles=%d mean IPC=%.3f min lifetime=%.2fy write imbalance=%.2f\n\n",
		res.Policy, o.InstrPerCore, res.MeasuredCycles, res.MeanIPC, res.MinLifetime, res.WriteImbalance)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "core\tapp\tIPC\tWPKI\tMPKI\tTLBmiss\tnoncrit-loads\tpred-acc")
	for i := range o.Apps {
		ctr := s.Counters(i)
		fmt.Fprintf(w, "%d\t%s\t%.3f\t%.2f\t%.2f\t%d\t%.1f%%\t%.1f%%\n",
			i, o.Apps[i], res.IPC[i], res.WPKI[i], res.MPKI[i], ctr.TLBMisses,
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
	fmt.Printf("back-invalidations: shootdowns=%d\n", s.Directory().Shootdowns)
	var tlbMiss, tlbLost uint64
	for i := range o.Apps {
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
// and knobs, only the policy varies), executed on the in-process worker
// pool. Reports file positionally, so the table is identical for every
// worker count (wall-clock goes to stderr).
func runAllPolicies(wlName string, base core.Options, workers int) {
	policies := nuca.Policies()
	units := make([]core.Unit, len(policies))
	for i, p := range policies {
		o := base
		o.Policy = p
		units[i] = core.Unit{ID: "all/" + p.String() + "/" + wlName, Workload: wlName, Opts: o}
	}
	n, err := pool.DefaultWorkers(workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(2)
	}
	start := time.Now() //lint:allow nondeterminism banner reports wall-clock; results are seed-pure
	pl := pool.New(n)
	reports, err := core.RunUnitsOn(pl, units)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-sim:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "# all policies, instr/core=%d workers=%d wall=%s\n",
		base.InstrPerCore, pl.Size(), //lint:allow nondeterminism banner reports wall-clock; results are seed-pure
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
