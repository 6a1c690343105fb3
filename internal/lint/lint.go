// Package lint implements renuca-lint, the project's domain-specific static
// analysis. Nine analyzers built on go/ast and go/types only enforce the
// simulator's three contracts. The scientific contract — identical results
// for identical (seed, config) regardless of wall-clock, worker count, or
// map iteration order:
//
//   - nondeterminism: wall-clock reads (time.Now, time.Since), global
//     math/rand draws, and fixed-literal rand sources anywhere in the tree;
//   - maporder: order-dependent effects (slice appends, formatted output,
//     float accumulation) inside `range` over a map;
//   - statsmerge: exported numeric counters on Stats-like structs that no
//     merge/snapshot/render code ever reads;
//   - seedflow: rand sources in simulation packages whose seed does not
//     data-flow from core.DeriveSeed or a caller-provided parameter;
//   - poolslot: bare `go` statements in internal/experiments and
//     internal/core that bypass internal/pool's bounded slots.
//
// And the performance/correctness contract — hot paths stay allocation- and
// divide-free, and the runtime invariants that validate the paper's figures
// cannot silently drop out of coverage:
//
//   - allocfree: closures, append growth, make/new, escaping composite
//     literals and interface conversions in //lint:hotpath functions;
//   - hotdiv: integer `/` and `%` by construction-time-fixed values in
//     //lint:hotpath functions, where a mask/shift or memoised table applies;
//   - invariantcall: exported state-mutating methods in the invariant-
//     bearing packages (coherence, cache, noc, dram, rram) that do not call
//     their package's sanCheck* simcheck hook.
//
// And the concurrency-safety contract — the worker pool cannot leak
// goroutines:
//
//   - goroleak: every goroutine launch carries a visible join (WaitGroup
//     Add/Done pairing, owned done-channel close, or result send).
//
// Intentional exceptions are annotated in place:
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; a bare allow is itself reported, as is an allow naming an
// analyzer that does not exist, and an allow that suppressed nothing in
// a run that included its analyzer (stale).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Fset   *token.FileSet
	Pkg    *Package
	report func(Diagnostic)

	analyzer string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.analyzer,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InSimPackage reports whether the package is part of the simulation core,
// where the seed-derivation discipline is mandatory (everything under
// internal/ except the linter itself).
func (p *Pass) InSimPackage() bool {
	path := p.Pkg.Path
	return strings.Contains(path, "/internal/") && !strings.Contains(path, "/internal/lint")
}

// Analyzer is one named check. Run is invoked once per package; Finish,
// when set, runs after every package has been seen and is where
// whole-program analyzers (statsmerge) report. Analyzers carry per-run
// state, so obtain fresh instances from NewAnalyzers for every lint run.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass)
	Finish func(report func(Diagnostic))
}

// NewAnalyzers returns fresh instances of all nine analyzers.
func NewAnalyzers() []*Analyzer {
	return []*Analyzer{
		newNondeterminism(),
		newMapOrder(),
		newStatsMerge(),
		newSeedFlow(),
		newPoolSlot(),
		newAllocFree(),
		newHotDiv(),
		newInvariantCall(),
		newGoroLeak(),
	}
}

// AnalyzerNames lists the analyzer names in presentation order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range NewAnalyzers() {
		names = append(names, a.Name)
	}
	return names
}

const allowPrefix = "lint:allow"

// allowKey identifies one (file, line) that may carry an allow annotation.
type allowKey struct {
	file string
	line int
}

// allowEntry is one well-formed //lint:allow, tracked so allows that
// suppress nothing can be reported as stale.
type allowEntry struct {
	pos  token.Position
	used bool
}

// collectAllows scans every comment for //lint:allow annotations and
// returns (position -> analyzer -> entry), plus diagnostics for malformed
// annotations (missing analyzer or missing reason) and for allows naming
// an analyzer that does not exist; those never enter the map, so they can
// suppress nothing.
func collectAllows(fset *token.FileSet, pkgs []*Package) (map[allowKey]map[string]*allowEntry, []Diagnostic) {
	known := make(map[string]bool)
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	allows := make(map[allowKey]map[string]*allowEntry)
	var bad []Diagnostic
	badAt := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Analyzer: "allow",
			Pos:      pos,
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
					rest, ok := strings.CutPrefix(text, allowPrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					pos := fset.Position(c.Pos())
					if len(fields) < 2 {
						badAt(pos, "malformed //lint:allow: need \"//lint:allow <analyzer> <reason>\"")
						continue
					}
					if !known[fields[0]] {
						badAt(pos, "//lint:allow names unknown analyzer %q (known: %s)",
							fields[0], strings.Join(AnalyzerNames(), ","))
						continue
					}
					k := allowKey{pos.Filename, pos.Line}
					if allows[k] == nil {
						allows[k] = make(map[string]*allowEntry)
					}
					allows[k][fields[0]] = &allowEntry{pos: pos}
				}
			}
		}
	}
	return allows, bad
}

// allowed reports whether d is suppressed by an annotation on its line or
// the line directly above, marking the matching entry used.
func allowed(allows map[allowKey]map[string]*allowEntry, d Diagnostic) bool {
	for _, line := range [2]int{d.Line, d.Line - 1} {
		if set, ok := allows[allowKey{d.File, line}]; ok {
			if entry, ok := set[d.Analyzer]; ok {
				entry.used = true
				return true
			}
		}
	}
	return false
}

// RunAnalyzers executes the analyzers over the packages, filters
// //lint:allow-suppressed findings, and returns the survivors sorted by
// position — plus diagnostics for malformed or unknown-analyzer allows,
// and for stale allows: annotations whose analyzer ran in this invocation
// yet suppressed nothing, meaning the exception they pinned no longer
// exists. Whole-program analyzers see every package before finishing.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Fset: fset, Pkg: pkg, report: report, analyzer: a.Name})
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(report)
		}
	}
	allows, bad := collectAllows(fset, pkgs)
	kept := bad
	for _, d := range diags {
		if !allowed(allows, d) {
			kept = append(kept, d)
		}
	}
	// Stale detection is scoped to the analyzers that actually ran: a
	// partial -enable run must not condemn allows for the analyzers it
	// skipped.
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	keys := make([]allowKey, 0, len(allows))
	for k := range allows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		set := allows[k]
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			entry := set[name]
			if ran[name] && !entry.used {
				kept = append(kept, Diagnostic{
					Analyzer: "allow",
					Pos:      entry.pos,
					File:     entry.pos.Filename,
					Line:     entry.pos.Line,
					Col:      entry.pos.Column,
					Message:  fmt.Sprintf("stale //lint:allow %s: suppressed nothing in this run; remove it", name),
				})
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (x in x.f[i].g), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() >= lo && obj.Pos() <= hi
}
