// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated 16-core CMP. Each experiment has
// a typed result and a Render method that prints the same rows/series the
// paper reports, alongside the paper's reference numbers where the paper
// states them.
//
// A Runner memoises the expensive simulation suites so experiments that
// share runs (Figure 3, Figure 11, Figure 12 and Table III all consume the
// same five policy suites) execute them once.
package experiments

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/workload"
)

// Params scales the experiments. The paper fast-forwards 2B instructions
// and measures 100M per core under gem5; these windows are sized for
// minutes-scale wall-clock on one host CPU while preserving the paper's
// qualitative results.
type Params struct {
	// InstrPerCore/Warmup drive the 16-core workload experiments.
	InstrPerCore uint64
	Warmup       uint64
	// CharInstr/CharWarmup drive the single-core characterisation runs
	// (Table II, Figures 2, 5, 7, 8, 9), which are cheap enough to run
	// much longer — long windows matter there because write-backs lag
	// fills by the L2 turnover time.
	CharInstr  uint64 //lint:allow optflow consumed by the single-core characterisation runs (RunMeasured), not Options construction
	CharWarmup uint64 //lint:allow optflow consumed by the single-core characterisation runs (RunMeasured), not Options construction
	Seed       uint64
	// Workers bounds how many simulations run concurrently across ALL
	// experiments a Runner executes (suites, characterisation, sweeps).
	// 0 means auto: RENUCA_WORKERS if set, else one worker per CPU.
	// Results are byte-identical for every worker count.
	Workers int //lint:allow optflow concurrency cap only: byte-identical results for every worker count, never reaches Options
	// QueueModel arms the per-bank FIFO queue contention model in every
	// suite and ablation the Runner executes (core.Options.QueueModel).
	// Off by default: the legacy windowed model keeps all existing goldens
	// byte-identical. The contention experiment arms it for itself either
	// way.
	QueueModel bool
	// The remaining fields override the corresponding core.Options
	// hardware knobs in every suite the Runner executes (zero = keep the
	// paper's Table I configuration). They are applied by policyOptions
	// before the variant's own modification, so a Table III variant still
	// wins for the cell it defines.
	L2Bytes                 uint64
	L3BankBytes             uint64
	ROBEntries              int
	CriticalityThresholdPct float64
	IntraBankWL             bool
	ReRAMWriteLatency       uint32
	BankContentionWindow    uint32
}

// DefaultParams returns the standard scale.
func DefaultParams() Params {
	return Params{
		InstrPerCore: 400_000,
		Warmup:       150_000,
		CharInstr:    3_000_000,
		CharWarmup:   800_000,
		Seed:         1,
	}
}

// ParamsFromEnv starts from DefaultParams and applies the RENUCA_INSTR,
// RENUCA_WARMUP, RENUCA_CHAR_INSTR, RENUCA_CHAR_WARMUP, RENUCA_SEED,
// RENUCA_WORKERS and RENUCA_QUEUE environment overrides, so
// benchmark runs can be scaled without editing code. RENUCA_QUEUE=1 (or
// "true") arms the bank-queue contention model across all experiments.
//
// The hardware knobs have overrides too: RENUCA_L2 and RENUCA_L3BANK
// (bytes), RENUCA_ROB (entries), RENUCA_THRESHOLD (criticality percent),
// RENUCA_INTRABANK_WL=1, RENUCA_WRITE_LAT (cycles) and RENUCA_CWINDOW
// (cycles). Zero/unset keeps the paper's Table I configuration.
func ParamsFromEnv() Params {
	p := DefaultParams()
	get := func(name string, dst *uint64) {
		if v := os.Getenv(name); v != "" {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil && n > 0 {
				*dst = n
			}
		}
	}
	get32 := func(name string, dst *uint32) {
		if v := os.Getenv(name); v != "" {
			if n, err := strconv.ParseUint(v, 10, 32); err == nil && n > 0 {
				*dst = uint32(n)
			}
		}
	}
	get("RENUCA_INSTR", &p.InstrPerCore)
	get("RENUCA_WARMUP", &p.Warmup)
	get("RENUCA_CHAR_INSTR", &p.CharInstr)
	get("RENUCA_CHAR_WARMUP", &p.CharWarmup)
	get("RENUCA_SEED", &p.Seed)
	if v := os.Getenv("RENUCA_QUEUE"); v == "1" || v == "true" {
		p.QueueModel = true
	}
	get("RENUCA_L2", &p.L2Bytes)
	get("RENUCA_L3BANK", &p.L3BankBytes)
	if v := os.Getenv("RENUCA_ROB"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			p.ROBEntries = n
		}
	}
	if v := os.Getenv("RENUCA_THRESHOLD"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			p.CriticalityThresholdPct = f
		}
	}
	if v := os.Getenv("RENUCA_INTRABANK_WL"); v == "1" || v == "true" {
		p.IntraBankWL = true
	}
	get32("RENUCA_WRITE_LAT", &p.ReRAMWriteLatency)
	get32("RENUCA_CWINDOW", &p.BankContentionWindow)
	p.Workers = pool.DefaultWorkers(0)
	return p
}

// Variant is one system configuration of Table III's rows.
type Variant struct {
	Key   string
	Label string
	Mod   func(*core.Options)
}

// Variants returns the paper's four configurations: the Table I baseline
// ("Actual Results") and the three Section V-C sensitivity studies.
func Variants() []Variant {
	return []Variant{
		{Key: "actual", Label: "Actual Results", Mod: func(*core.Options) {}},
		{Key: "l2-128", Label: "L2-128KB", Mod: func(o *core.Options) { o.L2Bytes = 128 << 10 }},
		{Key: "l3-1m", Label: "L3-1MB", Mod: func(o *core.Options) { o.L3BankBytes = 1 << 20 }},
		{Key: "rob-168", Label: "ROB-168", Mod: func(o *core.Options) { o.ROBEntries = 168 }},
	}
}

// VariantByKey looks up a variant.
func VariantByKey(key string) (Variant, error) {
	for _, v := range Variants() {
		if v.Key == key {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("experiments: unknown variant %q", key)
}

// Runner executes experiments with memoisation. It is safe for concurrent
// use: experiments may be launched from multiple goroutines, memoised
// results (the policy suites, the characterisation table, the threshold
// sweep) are computed once and shared via per-key singleflight, and all
// simulations draw from one bounded worker pool so total concurrency stays
// at P.Workers however many experiments are in flight.
type Runner struct {
	P Params
	// Log, when non-nil, receives progress lines (suites take tens of
	// seconds; the harness reports what it is doing). It may be invoked
	// from multiple goroutines but never concurrently: the Runner
	// serialises calls and prefixes each line with the suite key that
	// produced it.
	Log func(format string, args ...any)
	// Exec, when non-nil, executes suite units out-of-process (the shard
	// coordinator implements it). Suite simulations are then dispatched as
	// one flat unit batch per variant instead of through the in-process
	// pool; either path files every Report positionally and aggregates
	// through core.AggregateSuite, so the suites are byte-identical.
	// Characterisation runs and sweeps stay in-process either way.
	Exec UnitRunner

	logMu sync.Mutex
	pool  *pool.Pool
	sims  atomic.Uint64

	suiteFlight  pool.Flight[string, map[string]core.SuiteReport]
	table2Flight pool.Flight[string, []Table2Row]
	sweepFlight  pool.Flight[string, []ThresholdPoint]

	queueMu sync.Mutex
	queueR  *Runner
}

// NewRunner builds a Runner with the given parameters.
func NewRunner(p Params) *Runner {
	return &Runner{P: p, pool: pool.New(pool.DefaultWorkers(p.Workers))}
}

// Workers returns the size of the Runner's simulation pool.
func (r *Runner) Workers() int { return r.pool.Size() }

// Sims returns how many simulations the Runner has completed — the
// denominator-free throughput counter behind the harness's sims/sec
// reporting. Memoised reuse does not re-count.
func (r *Runner) Sims() uint64 { return r.sims.Load() }

// logf emits one progress line, serialised and prefixed with the key of
// the suite or phase that produced it so interleaved parallel progress
// stays attributable.
func (r *Runner) logf(key, format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.Log("[%-12s] "+format, append([]any{key}, args...)...)
}

// workloads returns the standard WL1..WL10.
func (r *Runner) workloads() []workload.Workload { return core.StandardWorkloads() }

// UnitRunner executes a batch of suite units and returns their Reports
// positionally: reports[i] is units[i]'s result. internal/shard's
// Coordinator is the production implementation; the interface lives here
// so the experiment layer depends only on the contract, not on process
// management.
type UnitRunner interface {
	RunUnits(units []core.Unit) ([]core.Report, error)
}

// policyOptions resolves the complete Options for one (variant, policy)
// cell — scale parameters, the derived per-policy seed, then the variant's
// modification. It is the single source of suite configuration for both
// the in-process and the sharded execution paths; the per-workload seed
// derivation on top of it happens in core.SuiteUnits either way.
func (r *Runner) policyOptions(v Variant, p core.Policy) core.Options {
	o := core.DefaultOptions(p)
	o.InstrPerCore = r.P.InstrPerCore
	o.Warmup = r.P.Warmup
	o.Seed = core.DeriveSeed(r.P.Seed, v.Key, p.String())
	o.QueueModel = r.P.QueueModel
	// Hardware knob overrides (zero = Table I default, matching the
	// Options zero value, so copying unconditionally changes nothing at
	// default scale). The variant's own modification runs last and wins.
	o.L2Bytes = r.P.L2Bytes
	o.L3BankBytes = r.P.L3BankBytes
	o.ROBEntries = r.P.ROBEntries
	o.CriticalityThresholdPct = r.P.CriticalityThresholdPct
	o.IntraBankWL = r.P.IntraBankWL
	o.ReRAMWriteLatency = r.P.ReRAMWriteLatency
	o.BankContentionWindow = r.P.BankContentionWindow
	v.Mod(&o)
	return o
}

// memoKey folds every result-affecting Params field into a Flight memo
// key. The Flights live per-Runner, but a Runner's P is exported and
// mutable between calls — and PR 8's derived queue Runner exists precisely
// because "same key, different Params" silently returns the other
// configuration's results. Keying on the resolved Params makes that class
// of stale hit impossible (keyflow enforces it statically). Workers is
// deliberately excluded: results are byte-identical for every worker
// count, so folding it in would only fragment the cache.
func (r *Runner) memoKey(base string) string {
	p := r.P
	return fmt.Sprintf("%s|i%d w%d ci%d cw%d s%d q%t l2b%d l3b%d rob%d th%g wl%t lat%d cw%d",
		base, p.InstrPerCore, p.Warmup, p.CharInstr, p.CharWarmup, p.Seed,
		p.QueueModel, p.L2Bytes, p.L3BankBytes, p.ROBEntries,
		p.CriticalityThresholdPct, p.IntraBankWL, p.ReRAMWriteLatency,
		p.BankContentionWindow)
}

// suiteSet runs (or returns the memoised) five-policy suite for a variant.
// The five policies fan out concurrently; each policy's ten workloads fan
// out inside core.RunSuiteOn as per-unit pool tasks. All leaf simulations
// gate on the shared pool, and every result lands at its (policy, workload)
// position, so the suite is identical for any worker count. With Exec set, the same units ship to worker
// processes instead — same positions, same aggregation, same bytes.
func (r *Runner) suiteSet(v Variant) (map[string]core.SuiteReport, error) {
	return r.suiteFlight.Do(r.memoKey(v.Key), func() (map[string]core.SuiteReport, error) {
		policies := core.Policies()
		reports := make([]core.SuiteReport, len(policies))
		var err error
		if r.Exec != nil {
			err = r.suiteSetSharded(v, policies, reports)
		} else {
			// One coordinator per policy: pool.Coordinate holds no pool slot
			// while the workload simulations queue, so nesting cannot deadlock.
			err = pool.Coordinate(len(policies), func(i int) error {
				p := policies[i]
				o := r.policyOptions(v, p)
				r.logf(v.Key, "policy %-8s (10 workloads x %d instr/core)", p, o.InstrPerCore)
				sr, err := core.RunSuiteOn(r.pool, o, r.workloads())
				if err != nil {
					return fmt.Errorf("variant %s: %w", v.Key, err)
				}
				r.sims.Add(uint64(len(sr.Reports)))
				reports[i] = sr
				return nil
			})
		}
		if err != nil {
			return nil, err
		}
		set := make(map[string]core.SuiteReport, len(policies))
		for i, p := range policies {
			set[p.String()] = reports[i]
		}
		return set, nil
	})
}

// queueRunner returns a Runner whose suites run with the bank-queue
// contention model armed. When r already has it on, r itself is returned
// and the contention experiment shares r's memoised suites; otherwise a
// derived Runner (same scale, Log and Exec, its own memoisation) is built
// once and cached, so the queue-on suites never perturb r's queue-off
// suites — the existing goldens stay byte-identical.
func (r *Runner) queueRunner() *Runner {
	if r.P.QueueModel {
		return r
	}
	r.queueMu.Lock()
	defer r.queueMu.Unlock()
	if r.queueR == nil {
		qp := r.P
		qp.QueueModel = true
		// Share r's pool so total simulation concurrency stays bounded at
		// P.Workers across both runners.
		r.queueR = &Runner{P: qp, Log: r.Log, Exec: r.Exec, pool: r.pool}
	}
	return r.queueR
}

// suiteSetSharded dispatches a variant's full policy-cross-workload unit
// batch to r.Exec in one flat slice, then slices the positional reports
// back per policy and aggregates each through core.AggregateSuite — the
// identical fold the in-process path uses.
func (r *Runner) suiteSetSharded(v Variant, policies []core.Policy, out []core.SuiteReport) error {
	wls := r.workloads()
	units := make([]core.Unit, 0, len(policies)*len(wls))
	for _, p := range policies {
		units = append(units, core.SuiteUnits(v.Key, r.policyOptions(v, p), wls)...)
	}
	r.logf(v.Key, "dispatching %d units (%d policies x %d workloads) to the shard runner", len(units), len(policies), len(wls))
	reps, err := r.Exec.RunUnits(units)
	if err != nil {
		return fmt.Errorf("variant %s: %w", v.Key, err)
	}
	if len(reps) != len(units) {
		return fmt.Errorf("variant %s: shard runner returned %d reports for %d units", v.Key, len(reps), len(units))
	}
	r.sims.Add(uint64(len(reps)))
	for i, p := range policies {
		out[i] = core.AggregateSuite(p.String(), reps[i*len(wls):(i+1)*len(wls)])
	}
	return nil
}
