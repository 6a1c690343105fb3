package lint

// optflow verifies the config-plumbing contract for every exported field of
// core.Options and experiments.Params: a knob that exists must (a) reach
// simulator construction (core.config / newSystem / Run, directly or
// through field-to-field flow like policyOptions copying Params into
// Options), (b) be settable from the outside world — a CLI flag or env
// var reachable from cmd/renuca-sim and cmd/renuca-bench (Options) or
// cmd/renuca-bench (Params), and (c) reach every suite unit intact: no
// composite Options literal in SuiteUnits/RunUnit that silently drops
// exported fields. Fields that are intentionally outside one of these
// paths carry a //lint:allow optflow with the rationale.

import (
	"fmt"
	"sort"
	"strings"
)

// optflowConsumerFuncs are the simulator-construction roots in the Options
// package: a field is "consumed" when one of these transitively reads it.
var optflowConsumerFuncs = []string{"config", "newSystem", "Run"}

// optflowCmds maps each tracked struct to the command packages that must
// be able to set its fields from a flag or env var.
func optflowCmds(name string) []string {
	if name == "Options" {
		return []string{"/cmd/renuca-sim", "/cmd/renuca-bench"}
	}
	return []string{"/cmd/renuca-bench"}
}

func newOptFlow(e *fieldFlow) *Analyzer {
	a := &Analyzer{
		Name: "optflow",
		Doc:  "exported Options/Params fields must be consumed by simulator construction, settable from a flag or env var in the CLIs, and copied whole into every suite unit",
	}
	a.Run = func(p *Pass) { e.add(p) }
	a.Finish = func(report func(Diagnostic)) {
		e.build()

		// (a) Consumption: transitive reads of the construction roots,
		// closed backward over field-to-field flow edges (a field feeding
		// a consumed field is itself consumed).
		consumed := make(map[fieldRef]bool)
		for key := range e.structs {
			if key.name != "Options" {
				continue
			}
			for _, fname := range optflowConsumerFuncs {
				for f := range e.reads[flowNode{key: key.pkg + "." + fname}] {
					consumed[f] = true
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, w := range e.writes {
				if !consumed[w.target] {
					continue
				}
				for s := range w.sources {
					if !consumed[s] {
						consumed[s] = true
						changed = true
					}
				}
			}
		}

		// (b) Settability per command: a field is settable when, among the
		// nodes reachable from that command's package, some write to it is
		// env/flag-derived, or some write's sources include an already
		// settable field (Params.Seed settable => Options.Seed settable
		// via policyOptions).
		settable := make(map[string]map[fieldRef]bool)
		for _, suf := range []string{"/cmd/renuca-sim", "/cmd/renuca-bench"} {
			if !e.pkgPresent(suf) {
				continue
			}
			reach := e.reachableFrom(suf)
			set := make(map[fieldRef]bool)
			for _, w := range e.writes {
				if reach[w.node] && e.writeDerived(w) {
					set[w.target] = true
				}
			}
			for changed := true; changed; {
				changed = false
				for _, w := range e.writes {
					if !reach[w.node] || set[w.target] {
						continue
					}
					for s := range w.sources {
						if set[s] {
							set[w.target] = true
							changed = true
							break
						}
					}
				}
			}
			settable[suf] = set
		}

		for _, ts := range e.sortedStructs() {
			for i := 0; i < ts.st.NumFields(); i++ {
				fv := ts.st.Field(i)
				if !fv.Exported() {
					continue
				}
				ref := fieldRef{owner: ts.key, field: fv.Name()}
				if !consumed[ref] {
					report(e.diagAt(a.Name, fv.Pos(), fmt.Sprintf(
						"%s.%s is never consumed by simulator construction (core config/newSystem/Run): dead knob or missing plumbing",
						ts.key.name, fv.Name())))
					continue
				}
				for _, suf := range optflowCmds(ts.key.name) {
					set, ok := settable[suf]
					if !ok {
						continue // command package not in this analysis scope
					}
					if !set[ref] {
						report(e.diagAt(a.Name, fv.Pos(), fmt.Sprintf(
							"%s.%s cannot be set from any CLI flag or env var reachable from %s: the knob exists but users cannot turn it",
							ts.key.name, fv.Name(), "cmd"+strings.TrimPrefix(suf, "/cmd"))))
					}
				}
			}

			// (c) Lossy copies: a keyed Options composite literal inside
			// SuiteUnits/RunUnit that omits exported fields builds the
			// unit's Options from scratch and silently runs every omitted
			// knob at its zero value. (Whole-struct copies `o := base` never
			// appear as composite literals, so they pass untouched — as they
			// should.)
			if ts.key.name != "Options" {
				continue
			}
			for _, cs := range e.composites {
				if cs.strct != ts.key || cs.topFn == nil {
					continue
				}
				name := cs.topFn.Name()
				if name != "SuiteUnits" && name != "RunUnit" {
					continue
				}
				if cs.topFn.Pkg() == nil ||
					strings.TrimSuffix(cs.topFn.Pkg().Path(), ".test") != ts.key.pkg {
					continue
				}
				var missing []string
				for i := 0; i < ts.st.NumFields(); i++ {
					f := ts.st.Field(i)
					if f.Exported() && !cs.fields[f.Name()] {
						missing = append(missing, f.Name())
					}
				}
				if len(missing) > 0 {
					sort.Strings(missing)
					report(e.diagAt(a.Name, cs.lit.Pos(), fmt.Sprintf(
						"Options literal in %s drops exported fields %s: lossy copy runs the unit without those knobs",
						name, strings.Join(missing, ", "))))
				}
			}
		}
	}
	return a
}
