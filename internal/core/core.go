// Package core is the public face of the Re-NUCA library: it packages the
// paper's contribution — criticality-directed hybrid NUCA placement for
// ReRAM last-level caches — together with the substrate simulator behind a
// small, stable API.
//
// The two entry points are Run, which executes one workload under one NUCA
// policy and returns a Report, and RunSuite, which executes a set of
// workloads and aggregates the paper's headline metrics (per-bank harmonic
// mean lifetime, raw minimum lifetime, mean IPC).
//
// A minimal use looks like:
//
//	opts := core.DefaultOptions(core.ReNUCA)
//	opts.Apps = []string{"mcf", "hmmer", ...}   // one per core
//	report, err := core.Run(opts)
//
// See examples/ for complete programs.
package core

import (
	"fmt"

	"repro/internal/nuca"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy selects the NUCA organisation. The values re-export
// internal/nuca's policies so callers need only this package.
type Policy = nuca.Policy

// The five schemes of the paper.
const (
	SNUCA   = nuca.SNUCA
	RNUCA   = nuca.RNUCA
	Private = nuca.PrivateLLC
	Naive   = nuca.NaiveWL
	ReNUCA  = nuca.ReNUCA
)

// Policies lists all five schemes in the paper's presentation order.
func Policies() []Policy { return nuca.Policies() }

// Options parameterises a run. DefaultOptions fills the paper's Table I
// baseline; the sensitivity fields mirror Section V-C's sweeps.
type Options struct {
	Policy Policy
	// Apps assigns one application per core (names from trace.AppNames).
	Apps []string
	// InstrPerCore is the measured instruction count per core; Warmup runs
	// first without statistics.
	InstrPerCore uint64
	Warmup       uint64
	Seed         uint64

	// Sensitivity knobs (zero = Table I default).
	L2Bytes                 uint64  // default 256KB; the paper sweeps 128KB
	L3BankBytes             uint64  // default 2MB; the paper sweeps 1MB
	ROBEntries              int     // default 128; the paper sweeps 168
	CriticalityThresholdPct float64 // default: the calibrated knee (see predictor)

	// IntraBankWL enables the i2wap-style intra-bank rotation extension
	// (orthogonal to the NUCA policy; improves first-failure lifetime).
	IntraBankWL bool

	// ReRAMWriteLatency overrides the ReRAM array write time (default:
	// equal to the 100-cycle read latency, as Table I's single figure).
	// ReRAM writes are really 2-5x slower than reads; the write-latency
	// ablation sweeps this.
	ReRAMWriteLatency uint32
}

// DefaultOptions returns the Table I configuration for a policy with a
// laptop-friendly measured window. The paper simulates 100M instructions
// per core in gem5; the defaults here are sized so a full experiment suite
// runs in minutes while preserving every qualitative result (EXPERIMENTS.md
// quantifies the residual scale effects).
func DefaultOptions(p Policy) Options {
	return Options{
		Policy:       p,
		InstrPerCore: 400_000,
		Warmup:       150_000,
		Seed:         1,
	}
}

// Report is the outcome of one measured run.
type Report struct {
	sim.Result
	Workload string
	Apps     []string
}

// LLCWrites returns total ReRAM writes (fills + write-back hits).
func (r Report) LLCWrites() uint64 {
	return r.LLC.Fills + r.LLC.WritebackHits
}

// MinFirstFailure returns the worst bank's first-failure lifetime (time
// until its hottest frame dies) — the metric the intra-bank wear-leveling
// extension improves.
func (r Report) MinFirstFailure() float64 {
	min := r.FirstFailureLifetimes[0]
	for _, l := range r.FirstFailureLifetimes[1:] {
		if l < min {
			min = l
		}
	}
	return min
}

// config translates Options into the simulator configuration.
func config(o Options) (sim.Config, error) {
	cfg := sim.DefaultConfig(o.Policy)
	cfg.Seed = o.Seed
	if o.L2Bytes != 0 {
		cfg.L2.SizeBytes = o.L2Bytes
	}
	if o.L3BankBytes != 0 {
		cfg.LLC.BankBytes = o.L3BankBytes
	}
	if o.ROBEntries != 0 {
		cfg.CPU.ROBEntries = o.ROBEntries
	}
	if o.CriticalityThresholdPct != 0 {
		cfg.CPT.ThresholdPct = o.CriticalityThresholdPct
	}
	cfg.LLC.IntraBankWL = o.IntraBankWL
	if o.ReRAMWriteLatency != 0 {
		cfg.LLC.WriteLatency = o.ReRAMWriteLatency
		cfg.LLC.WriteOccupancy = o.ReRAMWriteLatency / nuca.WriteOccupancyDivisor
	}
	if len(o.Apps) != cfg.Cores {
		return cfg, fmt.Errorf("core: %d apps for %d cores", len(o.Apps), cfg.Cores)
	}
	return cfg, nil
}

// newSystem builds the simulator for fully-resolved Options.
func newSystem(o Options) (*sim.System, error) {
	cfg, err := config(o)
	if err != nil {
		return nil, err
	}
	profs := make([]trace.Profile, 0, len(o.Apps))
	for _, name := range o.Apps {
		p, err := trace.ProfileFor(name)
		if err != nil {
			return nil, err
		}
		profs = append(profs, p)
	}
	return sim.New(cfg, profs)
}

// NewSystem builds the simulator for fully-resolved Options, exposing the
// single construction path (config + profile loading) to callers that need
// the live System for detailed inspection — renuca-sim's single-run
// breakdown drives its counters and wear tables off it. Using this instead
// of assembling a sim.Config by hand keeps every Options knob translated
// in exactly one place.
func NewSystem(o Options) (*sim.System, error) { return newSystem(o) }

// Run executes one workload under o and returns the Report.
func Run(o Options) (Report, error) {
	s, err := newSystem(o)
	if err != nil {
		return Report{}, err
	}
	res, err := s.RunMeasured(o.Warmup, o.InstrPerCore)
	if err != nil {
		return Report{}, err
	}
	return Report{Result: res, Apps: o.Apps}, nil
}

// SuiteReport aggregates a policy's behaviour over a set of workloads the
// way the paper reports it.
type SuiteReport struct {
	Policy  string
	Reports []Report

	// BankHMeanLifetimes is, per bank, the harmonic mean over workloads of
	// the bank's capacity lifetime in years (Figures 3/12/13/15/17).
	BankHMeanLifetimes []float64
	// RawMinLifetime is the minimum lifetime of any bank in any workload
	// (Table III).
	RawMinLifetime float64
	// MeanIPC averages the per-workload mean IPC (Figure 4's x-axis).
	MeanIPC float64
	// HMeanLifetime is the harmonic mean over all banks and workloads
	// (Figure 4's y-axis).
	HMeanLifetime float64

	// LLC sums every workload's LLC counters — in particular the bank
	// contention totals (Queue wait cycles and Slipped count) the
	// contention experiment reports.
	LLC nuca.Stats
}

// DeriveSeed derives an independent simulation seed from a base seed and a
// chain of labels (variant, policy, workload, …). It is a stable FNV-1a
// hash with a splitmix64 finisher, so per-run seeds depend only on the
// (Seed, labels…) tuple — never on execution order — which is what keeps
// parallel and serial suite runs byte-identical.
func DeriveSeed(base uint64, labels ...string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ (base >> (8 * i) & 0xff)) * fnvPrime
	}
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * fnvPrime
		}
		h = (h ^ 0xff) * fnvPrime // separator: ("ab","c") != ("a","bc")
	}
	// splitmix64 finisher for avalanche.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = fnvOffset
	}
	return h
}

// RunSuite executes every workload under the policy configured in base
// (base.Apps is ignored) and aggregates the results. Workloads run in
// parallel on a private worker pool sized by RENUCA_WORKERS (default: one
// worker per CPU); use RunSuiteOn to share a pool across suites.
func RunSuite(base Options, workloads []workload.Workload) (SuiteReport, error) {
	return RunSuiteOn(pool.New(pool.DefaultWorkers(0)), base, workloads)
}

// RunSuiteOn is RunSuite drawing its per-workload simulations from the
// given shared pool. Each workload simulates on its own sim.System with a
// seed derived from (base.Seed, workload name), and results are aggregated
// in workload order, so the report is identical whatever the pool size.
func RunSuiteOn(pl *pool.Pool, base Options, workloads []workload.Workload) (SuiteReport, error) {
	reports, err := RunUnitsOn(pl, SuiteUnits("", base, workloads))
	if err != nil {
		return SuiteReport{}, err
	}
	return AggregateSuite(base.Policy.String(), reports), nil
}

// Unit is one suite simulation work unit: fully resolved Options (policy,
// apps, derived seed — everything a worker needs, all plain serialisable
// data) plus the identity labels the aggregation layer files the result
// under. Units are what the shard runner ships to worker processes; a unit
// executed anywhere yields the identical Report because Options alone
// determine the simulation.
type Unit struct {
	// ID is a stable human-readable key ("variant/policy/workload") used
	// for dispatch bookkeeping and error attribution.
	ID string
	// Workload names the workload the unit simulates; it is copied onto
	// the resulting Report exactly as RunSuiteOn does.
	Workload string
	// Opts is the complete simulation configuration, with Apps set and
	// Seed already derived via DeriveSeed.
	Opts Options
}

// SuiteUnits expands one suite — base options fanned over workloads — into
// its units, deriving each unit's seed from (base.Seed, workload name)
// exactly as RunSuiteOn always has. keyPrefix (a variant/policy chain, may
// be empty) only namespaces the IDs; it never reaches the simulation.
func SuiteUnits(keyPrefix string, base Options, workloads []workload.Workload) []Unit {
	units := make([]Unit, len(workloads))
	for i, wl := range workloads {
		o := base
		o.Apps = wl.Apps
		o.Seed = DeriveSeed(base.Seed, wl.Name)
		id := base.Policy.String() + "/" + wl.Name
		if keyPrefix != "" {
			id = keyPrefix + "/" + id
		}
		units[i] = Unit{ID: id, Workload: wl.Name, Opts: o}
	}
	return units
}

// RunUnit executes one unit in this process.
func RunUnit(u Unit) (Report, error) {
	rep, err := Run(u.Opts)
	if err != nil {
		return Report{}, fmt.Errorf("%s on %s: %w", u.Opts.Policy, u.Workload, err)
	}
	rep.Workload = u.Workload
	return rep, nil
}

// RunUnitsOn executes units over the pool, one pool task per unit, and
// returns their Reports positionally. The first failing unit (lowest index
// among those observed) aborts the run with its error.
func RunUnitsOn(pl *pool.Pool, units []Unit) ([]Report, error) {
	reports := make([]Report, len(units))
	err := pl.Map(len(units), func(i int) error {
		rep, err := RunUnit(units[i])
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// AggregateSuite folds per-workload Reports (in workload order) into the
// paper's suite aggregates. It is the single aggregation path for both the
// in-process pool runner and the multi-process shard runner: as long as
// reports arrive positionally, the SuiteReport is byte-identical however
// and wherever the simulations executed.
func AggregateSuite(policy string, reports []Report) SuiteReport {
	sr := SuiteReport{Policy: policy, Reports: reports}
	var perBank [][]float64
	var ipcs, all []float64
	for _, rep := range sr.Reports {
		if perBank == nil {
			perBank = make([][]float64, len(rep.BankLifetimes))
		}
		for b, l := range rep.BankLifetimes {
			perBank[b] = append(perBank[b], l)
			all = append(all, l)
		}
		ipcs = append(ipcs, rep.MeanIPC)
		stats.MergeNumeric(&sr.LLC, &rep.LLC)
	}
	for _, ls := range perBank {
		sr.BankHMeanLifetimes = append(sr.BankHMeanLifetimes, stats.HarmonicMean(ls))
	}
	sr.RawMinLifetime = stats.Min(all)
	sr.MeanIPC = stats.Mean(ipcs)
	sr.HMeanLifetime = stats.HarmonicMean(all)
	return sr
}

// StandardWorkloads returns the paper's WL1..WL10 for the 16-core system.
func StandardWorkloads() []workload.Workload { return workload.Standard(16) }
