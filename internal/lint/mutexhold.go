package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// newMutexHold flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held. A lock guarding counters is cheap and safe; a lock
// held across a channel operation, a Wait, a sleep, or pipe/process I/O is
// the classic lock-ordering deadlock shape — every other goroutine needing
// the lock stalls behind an operation whose completion may itself depend
// on one of them.
//
// The analysis is a per-function linear scan: Lock/RLock opens a critical
// section keyed by the mutex's variable or field, Unlock/RUnlock closes
// it, `defer Unlock` holds it for the remainder of the scan. Branches are
// scanned on a copy of the held set; a branch that terminates (return,
// panic, os.Exit) does not leak its lock state past the branch. Function
// literals run on their own stacks later, so each is scanned independently
// with an empty held set. The scan is deliberately syntactic and linear —
// it cannot prove a lock is held on every path, only that the source
// interleaves a blocking operation between a visible Lock and its Unlock,
// which is exactly the shape a reviewer would flag.
//
// Blocking operations: channel send/receive/range, select without a
// default case, any .Wait() call (sync.WaitGroup, sync.Cond, exec.Cmd),
// time.Sleep, exec.Cmd Run/Output/CombinedOutput, fmt.Fprint*/Fscan*, and
// Read/Write/Flush/Scan-family method calls on interface-typed or *os.File
// receivers (an interface value may be a pipe). _test.go files are exempt.
func newMutexHold() *Analyzer {
	a := &Analyzer{
		Name: "mutexhold",
		Doc:  "no mutex held across blocking operations: channel ops, Wait, Sleep, select without default, pipe/process I/O",
	}
	a.Run = func(p *Pass) {
		for _, f := range p.Pkg.Files {
			if p.Pkg.IsTestFile(p.Fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					p.scanCritical(fd.Body)
				}
			}
		}
	}
	return a
}

// scanCritical drives the linear critical-section scan over one function
// body, then recurses into every function literal it encountered with a
// fresh held set.
func (p *Pass) scanCritical(body *ast.BlockStmt) {
	var lits []*ast.FuncLit
	p.scanStmts(body.List, map[types.Object]string{}, &lits)
	for _, lit := range lits {
		p.scanCritical(lit.Body)
	}
}

// mutexLockCall classifies a call as Lock/RLock (+1) or Unlock/RUnlock
// (-1) on a sync mutex and returns the object identifying the mutex (the
// field or variable selected as the receiver).
func mutexLockCall(info *types.Info, call *ast.CallExpr) (types.Object, string, int) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", 0
	}
	dir := 0
	switch fn.Name() {
	case "Lock", "RLock":
		dir = +1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return nil, "", 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", 0
	}
	// The mutex is whatever the method is selected from: a field
	// (c.mu.Lock -> mu), a local (mu.Lock -> mu), or an embedding
	// receiver (b.Lock -> b).
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return info.Uses[x.Sel], x.Sel.Name, dir
	case *ast.Ident:
		return info.Uses[x], x.Name, dir
	}
	return nil, "", 0
}

// scanStmts processes a statement list in order, tracking the held set
// (mutex object -> display name) and reporting blocking operations that
// occur while it is non-empty.
func (p *Pass) scanStmts(stmts []ast.Stmt, held map[types.Object]string, lits *[]*ast.FuncLit) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if obj, name, dir := mutexLockCall(p.Pkg.Info, call); obj != nil {
					if dir > 0 {
						held[obj] = name
					} else {
						delete(held, obj)
					}
					continue
				}
			}
			p.checkBlocking(s, held, lits)
		case *ast.DeferStmt:
			if obj, _, dir := mutexLockCall(p.Pkg.Info, s.Call); obj != nil && dir < 0 {
				// defer mu.Unlock(): held until return — the rest of the
				// scan stays inside the critical section.
				continue
			}
			p.checkBlocking(s, held, lits)
		case *ast.BlockStmt:
			p.scanStmts(s.List, held, lits)
		case *ast.IfStmt:
			if s.Init != nil {
				p.checkBlocking(s.Init, held, lits)
			}
			p.checkBlocking(s.Cond, held, lits)
			thenHeld := copyHeld(held)
			p.scanStmts(s.Body.List, thenHeld, lits)
			var elseHeld map[types.Object]string
			elseTerminates := false
			if s.Else != nil {
				elseHeld = copyHeld(held)
				p.scanStmts([]ast.Stmt{s.Else}, elseHeld, lits)
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					elseTerminates = terminates(blk)
				}
			}
			// Propagate the lock-state of a branch that falls through;
			// a terminating branch (unlock-and-return) does not leak its
			// state past the if.
			switch {
			case !terminates(s.Body):
				replaceHeld(held, thenHeld)
			case elseHeld != nil && !elseTerminates:
				replaceHeld(held, elseHeld)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				p.checkBlocking(s.Init, held, lits)
			}
			if s.Cond != nil {
				p.checkBlocking(s.Cond, held, lits)
			}
			p.scanStmts(s.Body.List, held, lits)
		case *ast.RangeStmt:
			if tv, ok := p.Pkg.Info.Types[s.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && len(held) > 0 {
					p.Reportf(s.Pos(), "range over a channel while holding %s blocks every other user of the lock until the channel closes", heldNames(held))
				}
			}
			p.checkBlocking(s.X, held, lits)
			p.scanStmts(s.Body.List, held, lits)
		case *ast.SelectStmt:
			if len(held) > 0 && !selectHasDefault(s) {
				p.Reportf(s.Pos(), "select without a default case blocks while holding %s", heldNames(held))
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					branch := copyHeld(held)
					p.scanStmts(cc.Body, branch, lits)
				}
			}
		case *ast.SwitchStmt:
			if s.Init != nil {
				p.checkBlocking(s.Init, held, lits)
			}
			if s.Tag != nil {
				p.checkBlocking(s.Tag, held, lits)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					branch := copyHeld(held)
					p.scanStmts(cc.Body, branch, lits)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					branch := copyHeld(held)
					p.scanStmts(cc.Body, branch, lits)
				}
			}
		case *ast.GoStmt:
			// The launched goroutine runs on its own stack; only collect
			// its literal for an independent scan. Argument expressions
			// evaluate now, though.
			for _, arg := range s.Call.Args {
				p.checkBlocking(arg, held, lits)
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				*lits = append(*lits, lit)
			}
		case *ast.LabeledStmt:
			p.scanStmts([]ast.Stmt{s.Stmt}, held, lits)
		default:
			p.checkBlocking(s, held, lits)
		}
	}
}

func copyHeld(held map[types.Object]string) map[types.Object]string {
	out := make(map[types.Object]string, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func replaceHeld(dst, src map[types.Object]string) {
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
}

func heldNames(held map[types.Object]string) string {
	names := make(map[string]bool)
	for _, n := range held {
		names[n] = true
	}
	var out []string
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	if len(out) == 1 {
		return "mutex " + out[0]
	}
	return "mutexes " + strings.Join(out, ", ")
}

// terminates reports whether a block's last statement unconditionally
// leaves the function (return, panic, os.Exit) or the loop (continue,
// break, goto) — in which case its lock-state changes do not flow past
// the branch.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				return fun.Sel.Name == "Exit" || fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf"
			}
		}
	}
	return false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingIO classifies method calls that can block on external progress:
// Wait anywhere, process execution, and byte I/O against receivers whose
// static type cannot rule out a pipe.
var blockingIONames = map[string]bool{
	"Read": true, "Write": true, "ReadString": true, "WriteString": true,
	"ReadBytes": true, "Flush": true, "Scan": true,
}

// checkBlocking inspects one statement or expression subtree (while the
// held set is non-empty) for blocking operations, without descending into
// function literals, which are collected for independent scanning.
func (p *Pass) checkBlocking(n ast.Node, held map[types.Object]string, lits *[]*ast.FuncLit) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			*lits = append(*lits, n)
			return false
		case *ast.SendStmt:
			if len(held) > 0 {
				p.Reportf(n.Pos(), "channel send while holding %s; a full channel wedges every other user of the lock", heldNames(held))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				p.Reportf(n.Pos(), "channel receive while holding %s; the sender may need the lock to ever send", heldNames(held))
			}
		case *ast.CallExpr:
			if len(held) == 0 {
				return true
			}
			fn := calleeFunc(p.Pkg.Info, n)
			if fn == nil {
				return true
			}
			pkgPath := ""
			if fn.Pkg() != nil {
				pkgPath = fn.Pkg().Path()
			}
			switch {
			case fn.Name() == "Wait":
				p.Reportf(n.Pos(), "%s.Wait() while holding %s; the waited-for work may need the lock to finish", receiverText(n), heldNames(held))
			case pkgPath == "time" && fn.Name() == "Sleep":
				p.Reportf(n.Pos(), "time.Sleep while holding %s stalls every other user of the lock", heldNames(held))
			case pkgPath == "os/exec" && (fn.Name() == "Run" || fn.Name() == "Output" || fn.Name() == "CombinedOutput"):
				p.Reportf(n.Pos(), "process execution (%s) while holding %s", fn.Name(), heldNames(held))
			case pkgPath == "fmt" && (strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Fscan")):
				p.Reportf(n.Pos(), "fmt.%s while holding %s; the destination writer may be a pipe with a stalled reader", fn.Name(), heldNames(held))
			case blockingIONames[fn.Name()] && pipeLikeReceiver(p.Pkg.Info, n):
				p.Reportf(n.Pos(), "%s.%s while holding %s; an interface-typed or file receiver may be a pipe", receiverText(n), fn.Name(), heldNames(held))
			}
		}
		return true
	})
}

// pipeLikeReceiver reports whether a method call's receiver expression has
// a static type that may be backed by a pipe: any interface type, or
// *os.File.
func pipeLikeReceiver(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
		}
	}
	return false
}

// receiverText renders the receiver of a method call for diagnostics.
func receiverText(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id := rootIdent(sel.X); id != nil {
			return id.Name
		}
	}
	return "receiver"
}
