package lint

import (
	"go/ast"
	"go/types"
)

// newNondeterminism flags wall-clock reads and math/rand: the two classic
// ways a simulator's output stops being a pure function of (seed, config).
// Every package-level math/rand (or math/rand/v2) call is reported — draws
// from the process-global source and generator constructors alike — since
// the simulator seeds its own generators (trace's xorshift64*, workload's
// splitmix64) from core.DeriveSeed and needs nothing from math/rand. It
// applies to every package: harness timing in cmd/ and benchmarks is
// legitimate but must be annotated, so readers can tell deliberate
// wall-clock reporting from an accidental hot-path leak.
func newNondeterminism() *Analyzer {
	a := &Analyzer{
		Name: "nondeterminism",
		Doc:  "flags time.Now/time.Since and every package-level math/rand call",
	}
	a.Run = func(p *Pass) {
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Pkg.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, _ := fn.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
					return true
				}
				switch path := fn.Pkg().Path(); {
				case path == "time" && (fn.Name() == "Now" || fn.Name() == "Since"):
					p.Reportf(call.Pos(), "time.%s reads the wall clock; results must depend only on (seed, config) — use the simulated cycle count, or annotate intentional harness timing with //lint:allow nondeterminism <reason>", fn.Name())
				case path == "math/rand" || path == "math/rand/v2":
					p.Reportf(call.Pos(), "%s.%s: math/rand is outside the seed-derivation tree; draw from a generator seeded via core.DeriveSeed", fn.Pkg().Name(), fn.Name())
				}
				return true
			})
		}
	}
	return a
}
