// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated 16-core CMP. Each experiment has
// a typed result and a Render method that prints the same rows/series the
// paper reports, alongside the paper's reference numbers where the paper
// states them.
//
// A Runner memoises the expensive simulation suites so experiments that
// share runs (Figure 3, Figure 11, Figure 12 and Table III all consume the
// same five policy suites) execute them once. Experiments run one at a
// time; each sends its independent simulations through the Runner's
// worker pool as one batch (pool.Map), with every result written at its
// index, so output is identical for every worker count.
package experiments

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

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
	// The remaining fields override the corresponding core.Options
	// hardware knobs in every simulation the Runner builds Options for:
	// the policy suites, the ablations and the energy study (zero = keep
	// the paper's Table I configuration). A Table III variant's own
	// modification, or the knob an ablation sweeps, is applied after them
	// and wins for the cell it defines.
	L2Bytes                 uint64
	L3BankBytes             uint64
	ROBEntries              int
	CriticalityThresholdPct float64
	IntraBankWL             bool
	ReRAMWriteLatency       uint32
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

// ParamsFromEnv starts from base and applies the RENUCA_INSTR,
// RENUCA_WARMUP, RENUCA_CHAR_INSTR, RENUCA_CHAR_WARMUP and RENUCA_SEED
// environment overrides, so runs can be scaled without editing code. Each
// must be a positive integer, as must RENUCA_WORKERS, the simulation
// concurrency cap (unset = one worker per CPU). renuca-bench passes
// DefaultParams; the repository benchmarks pass their reduced windows.
//
// The hardware knobs have overrides too: RENUCA_L2 and RENUCA_L3BANK
// (bytes), RENUCA_ROB (entries), RENUCA_THRESHOLD (criticality percent),
// RENUCA_INTRABANK_WL (a boolean) and RENUCA_WRITE_LAT (cycles). Zero
// selects the paper's Table I configuration; unset keeps base's value.
//
// A malformed value is an error, as is a set RENUCA_QUEUE or
// RENUCA_CWINDOW: those knobs selected a bank-timing model that no longer
// exists, and ignoring them would silently change a script's results.
func ParamsFromEnv(base Params) (Params, error) {
	p := base
	var errs []error
	for _, name := range []string{"RENUCA_QUEUE", "RENUCA_CWINDOW"} {
		if os.Getenv(name) != "" {
			errs = append(errs, fmt.Errorf("%s was removed: the windowed bank-timing model is the only one; unset it", name))
		}
	}
	parse := func(name string, bits int, positive bool, dst func(uint64)) {
		v := os.Getenv(name)
		if v == "" {
			return
		}
		n, err := strconv.ParseUint(v, 10, bits)
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("%s=%q: not a non-negative %d-bit integer", name, v, bits))
		case positive && n == 0:
			errs = append(errs, fmt.Errorf("%s=%q: must be positive", name, v))
		default:
			dst(n)
		}
	}
	scale := func(name string, dst *uint64) { parse(name, 64, true, func(n uint64) { *dst = n }) }
	scale("RENUCA_INSTR", &p.InstrPerCore)
	scale("RENUCA_WARMUP", &p.Warmup)
	scale("RENUCA_CHAR_INSTR", &p.CharInstr)
	scale("RENUCA_CHAR_WARMUP", &p.CharWarmup)
	scale("RENUCA_SEED", &p.Seed)
	parse("RENUCA_L2", 64, false, func(n uint64) { p.L2Bytes = n })
	parse("RENUCA_L3BANK", 64, false, func(n uint64) { p.L3BankBytes = n })
	parse("RENUCA_ROB", 31, false, func(n uint64) { p.ROBEntries = int(n) })
	parse("RENUCA_WRITE_LAT", 32, false, func(n uint64) { p.ReRAMWriteLatency = uint32(n) })
	if v := os.Getenv("RENUCA_THRESHOLD"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0 && f <= 100) {
			errs = append(errs, fmt.Errorf("RENUCA_THRESHOLD=%q: not a percentage in [0, 100]", v))
		} else {
			p.CriticalityThresholdPct = f
		}
	}
	if v := os.Getenv("RENUCA_INTRABANK_WL"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			errs = append(errs, fmt.Errorf("RENUCA_INTRABANK_WL=%q: not a boolean (1, 0, true, false)", v))
		} else {
			p.IntraBankWL = b
		}
	}
	if n, err := pool.DefaultWorkers(0); err != nil {
		errs = append(errs, err)
	} else {
		p.Workers = n
	}
	return p, errors.Join(errs...)
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

// Runner executes experiments with memoisation: the policy suites, the
// characterisation table and the threshold sweep are computed once per
// configuration and shared by every experiment that reads them. Each
// experiment sends its simulations through the Runner's pool one batch at a
// time, so at most P.Workers simulations run at once. A Runner is not safe
// for concurrent use.
type Runner struct {
	P Params
	// Log, when non-nil, receives one progress line per simulation batch
	// (suites take tens of seconds; the harness reports what it is doing),
	// prefixed with the suite or phase that produced it.
	Log func(format string, args ...any)

	pool *pool.Pool
	sims uint64

	suites map[memoKey]map[string]core.SuiteReport
	table2 map[memoKey][]Table2Row
	sweep  map[memoKey][]ThresholdPoint
}

// NewRunner builds a Runner with the given parameters. It panics if
// p.Workers is 0 and RENUCA_WORKERS is malformed; ParamsFromEnv reports
// that as an error instead.
func NewRunner(p Params) *Runner {
	n, err := pool.DefaultWorkers(p.Workers)
	if err != nil {
		panic(err)
	}
	return &Runner{
		P:      p,
		pool:   pool.New(n),
		suites: make(map[memoKey]map[string]core.SuiteReport),
		table2: make(map[memoKey][]Table2Row),
		sweep:  make(map[memoKey][]ThresholdPoint),
	}
}

// Workers returns the size of the Runner's simulation pool.
func (r *Runner) Workers() int { return r.pool.Size() }

// Sims returns how many simulations the Runner has completed — the
// denominator-free throughput counter behind the harness's sims/sec
// reporting. Memoised reuse does not re-count.
func (r *Runner) Sims() uint64 { return r.sims }

// logf emits one progress line prefixed with the key of the suite or phase
// that produced it.
func (r *Runner) logf(key, format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.Log("[%-12s] "+format, append([]any{key}, args...)...)
}

// workloads returns the standard WL1..WL10.
func (r *Runner) workloads() []workload.Workload { return core.StandardWorkloads() }

// options resolves the Options every simulation the Runner builds starts
// from: the policy's Table I defaults, the Params window and seed, then the
// Params hardware overrides (zero = Table I default, matching the Options
// zero value, so copying unconditionally changes nothing at default
// scale). Callers set only what their study varies on top.
func (r *Runner) options(p core.Policy) core.Options {
	o := core.DefaultOptions(p)
	o.InstrPerCore = r.P.InstrPerCore
	o.Warmup = r.P.Warmup
	o.Seed = r.P.Seed
	o.L2Bytes = r.P.L2Bytes
	o.L3BankBytes = r.P.L3BankBytes
	o.ROBEntries = r.P.ROBEntries
	o.CriticalityThresholdPct = r.P.CriticalityThresholdPct
	o.IntraBankWL = r.P.IntraBankWL
	o.ReRAMWriteLatency = r.P.ReRAMWriteLatency
	return o
}

// policyOptions resolves the complete Options for one (variant, policy)
// cell — the Runner's base options, the derived per-policy seed, then the
// variant's modification, which wins. It is the single source of suite
// configuration; the per-workload seed derivation on top of it happens in
// core.SuiteUnits.
func (r *Runner) policyOptions(v Variant, p core.Policy) core.Options {
	o := r.options(p)
	o.Seed = core.DeriveSeed(r.P.Seed, v.Key, p.String())
	v.Mod(&o)
	return o
}

// memoKey identifies one memoised computation: what was computed (a
// variant key, "table2", "sweep") under which Params. A Runner's P is
// exported and mutable between calls, and "same kind, different Params"
// would silently return the other configuration's results; carrying the
// whole Params struct puts every field, present and future, in the key.
type memoKey struct {
	kind string
	p    Params
}

// key builds the memo key for kind under the current Params. Workers is
// zeroed: results are byte-identical for every worker count, so keeping it
// would only fragment the cache.
func (r *Runner) key(kind string) memoKey {
	p := r.P
	p.Workers = 0
	return memoKey{kind: kind, p: p}
}

// memo returns m[k], computing and storing it with fn on a miss. A failed
// computation stores nothing, so a later call retries.
func memo[V any](m map[memoKey]V, k memoKey, fn func() (V, error)) (V, error) {
	if v, ok := m[k]; ok {
		return v, nil
	}
	v, err := fn()
	if err != nil {
		return v, err
	}
	m[k] = v
	return v, nil
}

// suiteSet runs (or returns the memoised) five-policy suite for a variant.
func (r *Runner) suiteSet(v Variant) (map[string]core.SuiteReport, error) {
	if err := r.runSuites([]Variant{v}); err != nil {
		return nil, err
	}
	return r.suites[r.key(v.Key)], nil
}

// runSuites runs the five-policy suites of every variant in vs that is not
// memoised yet, all of their units in one pool batch, and memoises each
// variant's per-policy aggregates. Every report lands at its (variant,
// policy, workload) position, so the suites are identical for any worker
// count.
func (r *Runner) runSuites(vs []Variant) error {
	policies := core.Policies()
	wls := r.workloads()
	var (
		todo  []Variant
		keys  []string
		units []core.Unit
	)
	for _, v := range vs {
		if _, ok := r.suites[r.key(v.Key)]; ok {
			continue
		}
		todo = append(todo, v)
		keys = append(keys, v.Key)
		for _, p := range policies {
			units = append(units, core.SuiteUnits(v.Key, r.policyOptions(v, p), wls)...)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	variants := strings.Join(keys, ",")
	r.logf("suites", "%s: %d policies x %d workloads x %d instr/core", variants, len(policies), len(wls), r.P.InstrPerCore)
	reports, err := core.RunUnitsOn(r.pool, units)
	if err != nil {
		return fmt.Errorf("variants %s: %w", variants, err)
	}
	r.sims += uint64(len(reports))
	for i, v := range todo {
		set := make(map[string]core.SuiteReport, len(policies))
		for j, p := range policies {
			first := (i*len(policies) + j) * len(wls)
			set[p.String()] = core.AggregateSuite(p.String(), reports[first:first+len(wls)])
		}
		r.suites[r.key(v.Key)] = set
	}
	return nil
}
