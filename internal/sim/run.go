package sim

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/nuca"
	"repro/internal/stats"
)

// ResetStats zeroes every statistic in the system — cores, caches, TLBs,
// predictor quality counters, LLC aggregates, wear, NoC, DRAM, directory —
// while preserving the warmed microarchitectural state (cache contents,
// learned predictor tables, TLB entries). Call it at the warmup/measure
// boundary.
func (s *System) ResetStats() {
	for i := range s.cores {
		s.cores[i].ResetStats()
		s.l1[i].ResetStats()
		s.l2[i].ResetStats()
		s.tlbs[i].ResetStats()
		s.counters[i] = CoreCounters{}
		s.frozen[i] = CoreCounters{}
		s.isFrozen[i] = false
		s.doneAt[i] = 0
	}
	s.llc.ResetStats()
	s.mesh.ResetStats()
	s.mem.ResetStats()
	s.dir.ResetStats()
	s.measureStart = s.cycle
}

// halted marks a core that reached its instruction target and left the
// wake schedule.
const halted = ^uint64(0)

// Run executes until every core has committed instrPerCore further
// instructions. A core halts once it crosses its target: its statistics
// freeze and it stops generating traffic. (Letting finished cores run on
// would keep late-window contention marginally more realistic for the
// slowest core, but multiplies wall-clock by the IPC spread.) Halting
// dilutes wear: rram divides every bank's writes by the slowest core's
// window, so a fast core's writes are spread over cycles in which it no
// longer ran. Under Private on WL1, bwaves' bank reads 7.87 years, but
// 0.96 years at bwaves' own rate. ROADMAP item 2 is the open fix: charge
// each core's writes at its own rate. Run returns an error if the safety
// cycle bound is exceeded.
//
// Each scheduler pass ticks every core due at the current cycle and, in
// the same sweep, tracks the earliest wake among running cores, so the
// next pass jumps straight there without a separate min-scan over the
// wake list.
//
//lint:hotpath
func (s *System) Run(instrPerCore uint64) error {
	if instrPerCore == 0 {
		return nil
	}
	wake := s.nextWake
	for i := range s.cores {
		s.cores[i].SetTarget(instrPerCore)
		s.isFrozen[i] = false
		wake[i] = s.cycle
	}
	remaining := len(s.cores)
	start := s.cycle
	for {
		min := halted
		for i := range s.cores {
			w := wake[i]
			if w <= s.cycle {
				w = s.cores[i].Tick(s.cycle)
				if !s.isFrozen[i] {
					if done, at := s.cores[i].Done(); done {
						s.isFrozen[i] = true
						s.frozen[i] = s.counters[i]
						s.doneAt[i] = at
						w = halted
						remaining--
					}
				}
				wake[i] = w
			}
			if w < min {
				min = w
			}
		}
		if remaining == 0 {
			return nil
		}
		if min > s.cycle {
			s.cycle = min
		}
		if s.cycle-start > s.cfg.MaxRunCycles {
			return s.budgetExceeded(instrPerCore)
		}
	}
}

// budgetExceeded builds the safety-bound error. It lives outside the hot
// loop so the formatting machinery (and its interface boxing) stays off the
// Run fast path.
func (s *System) budgetExceeded(instrPerCore uint64) error {
	return fmt.Errorf("sim: exceeded %d cycles without reaching %d instructions per core",
		s.cfg.MaxRunCycles, instrPerCore)
}

// Result summarises one measured run.
type Result struct {
	Policy         string
	InstrPerCore   uint64
	MeasuredCycles uint64 // slowest core's measurement window

	IPC     []float64 // per core: instrPerCore / core's window
	MeanIPC float64

	// BankLifetimes is the capacity lifetime (years) per bank: endurance
	// divided by the bank's mean per-frame write rate. This matches the
	// paper's accounting (their per-policy numbers reproduce from bank
	// write totals, assuming intra-bank leveling); the wear-leveling
	// policies under study redistribute writes BETWEEN banks, which is
	// exactly what this metric responds to.
	BankLifetimes []float64
	// FirstFailureLifetimes is the pessimistic per-bank view (hottest
	// frame); the intra-bank wear-leveling extension improves it.
	FirstFailureLifetimes []float64
	MinLifetime           float64 // min over banks — "raw minimum lifetime"
	WriteImbalance        float64

	WPKI []float64 // per core: L2->LLC write-backs per kilo-instruction
	MPKI []float64 // per core: LLC misses per kilo-instruction

	NonCriticalLoadFrac []float64 // per core, Figure 5's metric
	PredictorAccuracy   []float64 // per core

	LLC     nuca.Stats
	PerCore []CoreCounters

	// Energy carries the activity totals for the energy accountant
	// (package energy): technology comparisons are post-processing.
	Energy energy.Counts
}

// Snapshot extracts the Result for the most recent Run(instrPerCore).
func (s *System) Snapshot(instrPerCore uint64) Result {
	r := Result{
		Policy:       s.cfg.LLC.Policy.String(),
		InstrPerCore: instrPerCore,
		LLC:          s.llc.Stats(),
	}
	var lastDone uint64
	var armedIPC []float64
	for i := range s.cores {
		// A core that never armed (doneAt == 0: it never reached a
		// measurement target, e.g. under a zero-length measured window)
		// contributes no IPC sample and does not stretch the aggregate
		// window. The old window-of-1-cycle fallback reported instrPerCore
		// instructions retiring in a single cycle — an absurd outlier that
		// polluted MeanIPC and MeasuredCycles.
		var ipc float64
		if doneAt := s.doneAt[i]; doneAt != 0 {
			window := doneAt - s.measureStart
			if window == 0 {
				window = 1 // finished at the reset boundary; avoid division by zero
			}
			if doneAt > lastDone {
				lastDone = doneAt
			}
			ipc = float64(instrPerCore) / float64(window)
			armedIPC = append(armedIPC, ipc)
		}
		r.IPC = append(r.IPC, ipc)
		ctr := s.Counters(i)
		r.PerCore = append(r.PerCore, ctr)
		ki := float64(instrPerCore) / 1000
		r.WPKI = append(r.WPKI, float64(ctr.Writebacks)/ki)
		r.MPKI = append(r.MPKI, float64(ctr.LLCMisses)/ki)
		cs := s.cores[i].Stats()
		r.NonCriticalLoadFrac = append(r.NonCriticalLoadFrac, cs.NonCriticalLoadFraction())
		if cpt := s.cores[i].Predictor(); cpt != nil {
			r.PredictorAccuracy = append(r.PredictorAccuracy, cpt.Stats().Accuracy())
		} else {
			r.PredictorAccuracy = append(r.PredictorAccuracy, 0)
		}
	}
	r.MeanIPC = stats.Mean(armedIPC)
	if lastDone > s.measureStart {
		r.MeasuredCycles = lastDone - s.measureStart
	}
	if r.MeasuredCycles == 0 {
		r.MeasuredCycles = 1 // no core armed: report a degenerate 1-cycle window
	}
	// LLCReads counts read probes only (hits and misses both cycle the
	// array). Write traffic — fills and write-back hits — is already
	// accounted by the wear tracker as LLCWrites; summing Accesses() here
	// would fold every write lookup into the read energy a second time.
	var llcReads uint64
	for b := 0; b < s.cfg.LLC.NumBanks; b++ {
		bs := s.llc.BankStats(b)
		llcReads += bs.ReadHits + bs.ReadMisses
	}
	ds, ns := s.mem.Stats(), s.mesh.Stats()
	r.Energy = energy.Counts{
		LLCReads:   llcReads,
		LLCWrites:  s.wear.TotalWrites(),
		DRAMReads:  ds.Reads,
		DRAMWrites: ds.Writes,
		NoCHops:    ns.TotalHops,
		Banks:      s.cfg.LLC.NumBanks,
		Seconds:    float64(r.MeasuredCycles) / s.cfg.ClockHz,
	}
	r.BankLifetimes = s.wear.CapacityLifetimes(r.MeasuredCycles)
	r.FirstFailureLifetimes = s.wear.FirstFailureLifetimes(r.MeasuredCycles)
	r.MinLifetime = stats.Min(r.BankLifetimes)
	r.WriteImbalance = s.wear.WriteImbalance()
	return r
}

// RunMeasured is the standard experiment shape: warm up for warmup
// instructions per core, reset statistics, run the measured window, and
// return the Result.
func (s *System) RunMeasured(warmup, measure uint64) (Result, error) {
	if err := s.Run(warmup); err != nil {
		return Result{}, fmt.Errorf("warmup: %w", err)
	}
	s.ResetStats()
	if err := s.Run(measure); err != nil {
		return Result{}, fmt.Errorf("measure: %w", err)
	}
	return s.Snapshot(measure), nil
}
