package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// spec is one benchmark workload: the suites a rep submits together and
// which of their units the traced run records.
type spec struct {
	name string
	why  string
	// warmup and instr are the per-core windows of every unit; zero means
	// core.DefaultOptions' windows.
	warmup, instr uint64
	cold          bool // windows too short to fill the caches
	// groups expands the workload for a seed. Every group runs under every
	// policy, one suite per (group, policy).
	groups func(seed uint64) []group
	// tracePerSuite is how many leading units of each suite of the first
	// group the traced run records.
	tracePerSuite int
}

// group is a seed and the workloads that run with it.
type group struct {
	seed uint64
	wls  []workload.Workload
}

// suite is what one core.RunSuiteOn call runs: base fanned over wls.
type suite struct {
	base core.Options
	wls  []workload.Workload
}

// Table II's intensity classes (WPKI+MPKI above 10, below 1), fixed here so
// the workloads stay put if the profile table is re-tuned.
var (
	lowIntensity  = []string{"sjeng", "sphinx3", "dealII", "astar", "povray", "namd", "GemsFDTD"}
	highIntensity = []string{"mcf", "streamL", "lbm", "zeusmp", "bwaves", "libquantum", "milc", "omnetpp", "xalancbmk", "leslie3d"}
)

var specs = []spec{
	{
		name: "paper-suite",
		why:  "what renuca-bench spends its time on: all 5 policies on WL1 (3 high-intensity apps) and WL6 (8), bracketing memory pressure",
		groups: func(seed uint64) []group {
			std := core.StandardWorkloads()
			return []group{{seed, []workload.Workload{std[0], std[5]}}}
		},
		tracePerSuite: 1,
	},
	{
		name: "compute-mix",
		why:  "low-intensity apps stay resident in L1/L2, so host time goes to cpu, trace and predictor while LLC, NoC and DRAM idle",
		groups: func(seed uint64) []group {
			return []group{{seed, mixes("compute", lowIntensity)}}
		},
		tracePerSuite: 1,
	},
	{
		name: "memory-mix",
		why:  "high-intensity apps walk the whole hierarchy: LLC fills, write-backs, DRAM traffic, wear and directory churn",
		groups: func(seed uint64) []group {
			return []group{{seed, mixes("memory", highIntensity)}}
		},
		tracePerSuite: 1,
	},
	{
		name:   "short-units",
		why:    "cold 5k+10k-instruction units, so construction, allocation, GC and pool dispatch dominate, which the long workloads hide",
		warmup: 5_000,
		instr:  10_000,
		cold:   true,
		groups: func(seed uint64) []group {
			out := make([]group, 3)
			for k := range out {
				out[k] = group{core.DeriveSeed(seed, "short-units", fmt.Sprint(k)), core.StandardWorkloads()}
			}
			return out
		},
		tracePerSuite: 10,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// options returns the Options every unit of a suite under p with seed
// shares, with the windows divided by scale.
func (sp *spec) options(p core.Policy, seed, scale uint64) core.Options {
	o := core.DefaultOptions(p)
	o.Seed = seed
	if sp.warmup != 0 {
		o.Warmup, o.InstrPerCore = sp.warmup, sp.instr
	}
	o.Warmup /= scale
	o.InstrPerCore /= scale
	return o
}

// expand returns the workload's suites for seed: group-major, in
// core.Policies order within a group.
func (sp *spec) expand(seed, scale uint64) []suite {
	var out []suite
	for _, g := range sp.groups(seed) {
		for _, p := range core.Policies() {
			out = append(out, suite{base: sp.options(p, g.seed, scale), wls: g.wls})
		}
	}
	return out
}

// traceUnits returns the units the traced run records: the leading
// tracePerSuite units of each policy's suite in the first group.
func (sp *spec) traceUnits(suites []suite) []core.Unit {
	var out []core.Unit
	for _, s := range suites[:len(core.Policies())] {
		out = append(out, core.SuiteUnits("", s.base, s.wls)[:sp.tracePerSuite]...)
	}
	return out
}

// mixes builds two 16-app mixes from class: the class cycled in order over
// 32 cores, dealt out by a fixed shuffle so neither mix keeps the class's
// order. They do not depend on the seed. Which app runs on which tile moves
// host time per instruction by several percent, which would swamp the
// comparison between runs at different seeds; the seed varies every unit's
// Options.Seed instead, as it does for the paper's workloads.
func mixes(label string, class []string) []workload.Workload {
	const cores, n = 16, 2
	r := splitmix64(core.DeriveSeed(0, "renuca-perf", label))
	apps := make([]string, n*cores)
	for i := range apps {
		apps[i] = class[i%len(class)]
	}
	r.shuffle(apps)
	out := make([]workload.Workload, n)
	for i := range out {
		out[i] = workload.Workload{Name: fmt.Sprintf("%s-%d", label, i+1), Apps: apps[i*cores : (i+1)*cores]}
	}
	return out
}

// splitmix64 is a small fixed PRNG, so the mixes stay the same on every Go
// release.
type splitmix64 uint64

func (r *splitmix64) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) shuffle(s []string) {
	for i := len(s) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}

// units lists every unit of suites in submission order.
func units(suites []suite) []core.Unit {
	var out []core.Unit
	for _, s := range suites {
		out = append(out, core.SuiteUnits("", s.base, s.wls)...)
	}
	return out
}
