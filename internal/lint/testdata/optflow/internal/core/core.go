// Package core is a miniature copy of the real core package: config is the
// construction root optflow anchors on, SuiteUnits builds the suite units
// the lossy-copy check guards.
package core

// Options is the simulator configuration under the plumbing contract.
type Options struct {
	Instr    uint64
	Seed     uint64
	Knob     uint64 // want `Options\.Knob cannot be set from any CLI flag or env var reachable from cmd/renuca-sim` want `Options\.Knob cannot be set from any CLI flag or env var reachable from cmd/renuca-bench`
	Dangling uint64 // want `Options\.Dangling is never consumed by simulator construction`
	Tuned    uint64
}

// tuner is called through an interface: optflow resolves the call to every
// analysed implementation, so Tuned, read only behind it, is consumed.
type tuner interface {
	Tune(o Options) uint64
}

type fieldTuner struct{}

func (fieldTuner) Tune(o Options) uint64 { return o.Tuned }

var defaultTuner tuner = fieldTuner{}

// config consumes every plumbed knob.
func config(o Options) uint64 {
	return o.Instr + o.Seed + o.Knob + defaultTuner.Tune(o)
}

// Run is the public construction entry.
func Run(o Options) uint64 { return config(o) }

// Unit is one suite work unit.
type Unit struct {
	Opts Options
}

// SuiteUnits builds each unit's Options from scratch instead of copying
// base whole — the lossy pattern optflow rejects.
func SuiteUnits(base Options, n int) []Unit {
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{Opts: Options{Instr: base.Instr, Seed: base.Seed}} // want `Options literal in SuiteUnits drops exported fields Dangling, Knob, Tuned`
	}
	return units
}
