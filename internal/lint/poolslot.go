package lint

import (
	"go/ast"
	"strings"
)

// newPoolSlot keeps concurrency in the experiment layer on the bounded
// pool. pool.Map caps the simulations of one call at the pool size, so the
// cap holds only while Map calls never overlap; a bare `go` statement in
// internal/experiments or internal/core could overlap them (unbounded
// concurrent simulations, unbounded peak memory) and bypasses Map's
// lowest-index-first-error cancellation. Run independent work as one
// pool.Map batch; code that genuinely must hand-roll its goroutines
// documents why via //lint:allow poolslot <reason>.
//
// _test.go files are exempt: tests hammer the Runner from raw goroutines
// on purpose.
func newPoolSlot() *Analyzer {
	a := &Analyzer{
		Name: "poolslot",
		Doc:  "bare go statements in internal/experiments and internal/core must route through internal/pool",
	}
	a.Run = func(p *Pass) {
		path := strings.TrimSuffix(p.Pkg.Path, ".test")
		if !strings.HasSuffix(path, "/internal/experiments") && !strings.HasSuffix(path, "/internal/core") {
			return
		}
		for _, f := range p.Pkg.Files {
			if p.Pkg.IsTestFile(p.Fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					p.Reportf(gs.Pos(), "bare goroutine bypasses internal/pool's bounded slots and first-error cancellation; run the work as one pool.Map batch")
				}
				return true
			})
		}
	}
	return a
}
