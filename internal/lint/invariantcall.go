package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// invariantPkgs are the packages whose structural invariants the simcheck
// sanitizer guards (matched by import-path suffix).
var invariantPkgs = []string{
	"/internal/cache",
	"/internal/noc",
	"/internal/dram",
	"/internal/rram",
}

// newInvariantCall guarantees the simcheck sanitizer cannot silently lose
// coverage: in the invariant-bearing packages, every exported method that
// mutates its receiver's state must call one of its package's sanCheck*
// hooks. The hooks compile to empty no-ops without the simcheck build tag,
// so the call is free in release builds — there is no performance excuse
// for skipping it, and a new mutating method added without a hook is a
// sanitizer blind spot from day one.
//
// Mutation means an assignment, ++/--, delete, or clear whose target roots
// at the receiver or at a local derived from it (ways := c.sets[...];
// b := &m.banks[i]). Reset* methods are exempt: they reconstruct state
// wholesale between measurement phases rather than evolving it, so the
// per-step invariants don't apply mid-call.
func newInvariantCall() *Analyzer {
	a := &Analyzer{
		Name: "invariantcall",
		Doc:  "exported state-mutating methods in cache/noc/dram/rram must call a sanCheck* simcheck hook",
	}
	a.Run = func(p *Pass) {
		inScope := false
		for _, suffix := range invariantPkgs {
			if strings.HasSuffix(strings.TrimSuffix(p.Pkg.Path, ".test"), suffix) {
				inScope = true
			}
		}
		if !inScope {
			return
		}
		info := p.Pkg.Info
		for _, f := range p.Pkg.Files {
			if p.Pkg.IsTestFile(p.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				if !fd.Name.IsExported() || strings.HasPrefix(name, "Reset") {
					continue
				}
				if mutatesReceiver(info, fd) && !callsSanHook(fd) {
					p.Reportf(fd.Name.Pos(), "state-mutating method %s does not call a sanCheck* hook; the simcheck sanitizer silently loses coverage of it (add the hook call — it is a no-op without the tag)", name)
				}
			}
		}
	}
	return a
}

// callsSanHook reports whether the body contains a call whose callee name
// starts with sanCheck.
func callsSanHook(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if strings.HasPrefix(fun.Sel.Name, "sanCheck") {
				found = true
			}
		case *ast.Ident:
			if strings.HasPrefix(fun.Name, "sanCheck") {
				found = true
			}
		}
		return true
	})
	return found
}

// mutatesReceiver reports whether fd assigns through its receiver or a
// receiver-derived local. Derived locals are collected in source order
// (`ways := c.sets[a:b]` precedes its use), which is sufficient for the
// single-assignment style of these packages.
func mutatesReceiver(info *types.Info, fd *ast.FuncDecl) bool {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return false // unnamed receiver cannot be mutated
	}
	recv := info.Defs[fd.Recv.List[0].Names[0]]
	if recv == nil {
		return false
	}
	derived := map[types.Object]bool{recv: true}
	fromRecv := func(e ast.Expr) bool {
		id := mutationRoot(e)
		if id == nil {
			return false
		}
		obj := objectOf(info, id)
		return obj != nil && derived[obj]
	}
	mutates := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && fromRecv(n.Rhs[i]) {
						if id, ok := lhs.(*ast.Ident); ok {
							if obj := objectOf(info, id); obj != nil {
								derived[obj] = true
							}
						}
					}
				}
				return true
			}
			for _, lhs := range n.Lhs {
				if fromRecv(lhs) {
					mutates = true
				}
			}
		case *ast.IncDecStmt:
			if fromRecv(n.X) {
				mutates = true
			}
		case *ast.CallExpr:
			name := builtinCallee(info, n)
			if (name == "delete" || name == "clear") && len(n.Args) > 0 && fromRecv(n.Args[0]) {
				mutates = true
			}
		}
		return true
	})
	return mutates
}

// mutationRoot is rootIdent extended through &x and slice expressions, so
// `b := &m.banks[i]` and `ways := c.sets[a:b]` root at the receiver.
func mutationRoot(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return rootIdent(e)
		}
	}
}
