package lint

import (
	"go/ast"
	"strings"
)

// newPoolSlot keeps every goroutine in internal/pool. pool.Map is the one
// place that launches goroutines, and it joins them before it returns (its
// runtime test pins that). A `go` statement anywhere else could overlap
// Map calls (unbounded concurrent simulations, unbounded peak memory),
// bypass Map's lowest-index-first-error cancellation, or outlive its
// caller. Run independent work as one pool.Map batch; code that genuinely
// must hand-roll its goroutines documents why via
// //lint:allow poolslot <reason>.
//
// _test.go files are exempt: tests hammer the Runner from raw goroutines
// on purpose.
func newPoolSlot() *Analyzer {
	a := &Analyzer{
		Name: "poolslot",
		Doc:  "go statements outside internal/pool must route through pool.Map",
	}
	a.Run = func(p *Pass) {
		if strings.HasSuffix(strings.TrimSuffix(p.Pkg.Path, ".test"), "/internal/pool") {
			return
		}
		for _, f := range p.Pkg.Files {
			if p.Pkg.IsTestFile(p.Fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					p.Reportf(gs.Pos(), "bare goroutine bypasses internal/pool's bounded workers, join and first-error cancellation; run the work as one pool.Map batch")
				}
				return true
			})
		}
	}
	return a
}
