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
//
// Params carries no hardware knob. The suites run Table I and Table III's
// configurations (Variants), each ablation sets the knob it sweeps, and
// renuca-sim's flags reach every core.Options field for one-off runs.
type Params struct {
	// InstrPerCore/Warmup drive the 16-core workload experiments.
	InstrPerCore uint64
	Warmup       uint64
	// CharInstr/CharWarmup drive the single-core characterisation runs
	// (Table II, Figures 2, 5, 7, 8, 9), which are cheap enough to run
	// much longer — long windows matter there because write-backs lag
	// fills by the L2 turnover time. They are consumed by those runs'
	// RunMeasured calls, not by Options construction.
	CharInstr  uint64
	CharWarmup uint64
	Seed       uint64
	// Workers bounds how many simulations run concurrently across ALL
	// experiments a Runner executes (suites, characterisation, sweeps).
	// 0 means auto: RENUCA_WORKERS if set, else one worker per CPU.
	// It is a concurrency cap only: results are byte-identical for every
	// worker count, and it never reaches Options.
	Workers int
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
// concurrency cap (unset = one worker per CPU). An unset or empty knob
// keeps base's value. renuca-bench passes DefaultParams; the repository
// benchmarks pass their reduced windows.
//
// A malformed value is an error, as is a set removed knob (removedKnobs):
// ignoring one would silently run a script at a configuration it did not
// ask for.
func ParamsFromEnv(base Params) (Params, error) {
	p := base
	var errs []error
	for _, k := range removedKnobs {
		if os.Getenv(k.name) != "" {
			errs = append(errs, fmt.Errorf("%s was removed: %s; unset it", k.name, k.why))
		}
	}
	scale := func(name string, dst *uint64) {
		v := os.Getenv(name)
		if v == "" {
			return
		}
		n, err := strconv.ParseUint(v, 10, 64)
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("%s=%q: not a non-negative 64-bit integer", name, v))
		case n == 0:
			errs = append(errs, fmt.Errorf("%s=%q: must be positive", name, v))
		default:
			*dst = n
		}
	}
	scale("RENUCA_INSTR", &p.InstrPerCore)
	scale("RENUCA_WARMUP", &p.Warmup)
	scale("RENUCA_CHAR_INSTR", &p.CharInstr)
	scale("RENUCA_CHAR_WARMUP", &p.CharWarmup)
	scale("RENUCA_SEED", &p.Seed)
	if n, err := pool.DefaultWorkers(0); err != nil {
		errs = append(errs, err)
	} else {
		p.Workers = n
	}
	return p, errors.Join(errs...)
}

// removedKnobs are the RENUCA_* variables ParamsFromEnv no longer reads,
// each with what replaced it.
var removedKnobs = []struct{ name, why string }{
	{"RENUCA_QUEUE", "the windowed bank-timing model is the only one"},
	{"RENUCA_CWINDOW", "the windowed bank-timing model is the only one"},
	{"RENUCA_L2", hardwareFlag("-l2")},
	{"RENUCA_L3BANK", hardwareFlag("-l3bank")},
	{"RENUCA_ROB", hardwareFlag("-rob")},
	{"RENUCA_THRESHOLD", hardwareFlag("-threshold")},
	{"RENUCA_INTRABANK_WL", hardwareFlag("-intrabank-wl")},
	{"RENUCA_WRITE_LAT", hardwareFlag("-write-latency")},
}

func hardwareFlag(flag string) string {
	return "renuca-bench runs the paper's configurations; use renuca-sim " + flag
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

// Runner executes experiments with memoisation: the policy suites (per
// variant), the characterisation table and the threshold sweep are
// computed once and shared by every experiment that reads them. Its Params
// are fixed at NewRunner, so a memoised result can never belong to another
// configuration. Each experiment sends its simulations through the
// Runner's pool one batch at a time, so at most Params.Workers simulations
// run at once. A Runner is not safe for concurrent use.
type Runner struct {
	// Log, when non-nil, receives one progress line per simulation batch
	// (suites take tens of seconds; the harness reports what it is doing),
	// prefixed with the suite or phase that produced it.
	Log func(format string, args ...any)

	p    Params
	pool *pool.Pool
	sims uint64

	suites map[string]map[string]core.SuiteReport // by variant key
	table2 []Table2Row
	sweep  []ThresholdPoint
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
		p:      p,
		pool:   pool.New(n),
		suites: make(map[string]map[string]core.SuiteReport),
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
// from: the policy's Table I defaults with the Params window and seed.
// Callers set only what their study varies on top.
func (r *Runner) options(p core.Policy) core.Options {
	o := core.DefaultOptions(p)
	o.InstrPerCore = r.p.InstrPerCore
	o.Warmup = r.p.Warmup
	o.Seed = r.p.Seed
	return o
}

// policyOptions resolves the complete Options for one (variant, policy)
// cell — the Runner's base options, the derived per-policy seed, then the
// variant's modification, which wins. It is the single source of suite
// configuration; the per-workload seed derivation on top of it happens in
// core.SuiteUnits.
func (r *Runner) policyOptions(v Variant, p core.Policy) core.Options {
	o := r.options(p)
	o.Seed = core.DeriveSeed(r.p.Seed, v.Key, p.String())
	v.Mod(&o)
	return o
}

// memo returns *slot, computing and storing it with fn while it is nil.
// A failed computation stores nothing, so a later call retries.
func memo[V any](slot *[]V, fn func() ([]V, error)) ([]V, error) {
	if *slot != nil {
		return *slot, nil
	}
	v, err := fn()
	if err != nil {
		return nil, err
	}
	*slot = v
	return v, nil
}

// suiteSet runs (or returns the memoised) five-policy suite for a variant.
func (r *Runner) suiteSet(v Variant) (map[string]core.SuiteReport, error) {
	if err := r.runSuites([]Variant{v}); err != nil {
		return nil, err
	}
	return r.suites[v.Key], nil
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
		if _, ok := r.suites[v.Key]; ok {
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
	r.logf("suites", "%s: %d policies x %d workloads x %d instr/core", variants, len(policies), len(wls), r.p.InstrPerCore)
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
		r.suites[v.Key] = set
	}
	return nil
}
