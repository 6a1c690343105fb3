package lint

// fieldflow.go is the field-provenance dataflow engine behind the optflow
// analyzer. It tracks the two configuration structs that
// determine every simulation result — core.Options and experiments.Params,
// matched by (type name, package-path suffix) so fixture trees analyse the
// same way as the real module — and builds, over the whole program:
//
//   - a call graph whose nodes are declared functions and function
//     literals, with edges for static calls, function-value references
//     (the experiment registry's Run fields), and interface-method calls
//     resolved against every analysed concrete implementation;
//   - per-node tracked-field read sets, propagated to a transitive
//     fixpoint over the call graph;
//   - field write sites (assignments, composite-literal entries, &field
//     call arguments) carrying the tracked fields their right-hand sides
//     read, which form the flow edges between fields (Params.Seed ->
//     Options.Seed via policyOptions);
//   - env/flag taint per node (os.Getenv / package flag use, propagated
//     through callees), from which a write is judged "settable from the
//     outside world".
//
// Declared functions are keyed by "pkgpath.(Recv).Name" strings, not
// *types.Func identity: the loader type-checks each package once as an
// analysis target and again as an import, and the two views must collapse
// onto one call-graph node.
//
// Test files contribute nothing: results must be reproducible from the
// production configuration surface alone, and test-only plumbing must not
// satisfy (or trip) the analyzers.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// trackedKey identifies one tracked struct type by declaring package path
// (".test" view collapsed onto the real package) and type name.
type trackedKey struct {
	pkg  string
	name string
}

// fieldRef is one field of a tracked struct.
type fieldRef struct {
	owner trackedKey
	field string
}

func (f fieldRef) String() string { return f.owner.name + "." + f.field }

// flowNode is a function in the flow graph: a declared function keyed by
// its canonical string, or a function literal keyed by position.
type flowNode struct {
	key string
	lit token.Pos
}

// funcNode canonicalises a declared function or method to its flow node.
func funcNode(fn *types.Func) flowNode {
	fn = origin(fn)
	path := ""
	if fn.Pkg() != nil {
		path = strings.TrimSuffix(fn.Pkg().Path(), ".test")
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := types.Unalias(sig.Recv().Type())
		if p, ok := recv.(*types.Pointer); ok {
			recv = types.Unalias(p.Elem())
		}
		name := "?"
		if n, ok := recv.(*types.Named); ok {
			name = n.Obj().Name()
		}
		return flowNode{key: path + ".(" + name + ")." + fn.Name()}
	}
	return flowNode{key: path + "." + fn.Name()}
}

// trackedStruct is a tracked type declared inside the analysed package set,
// i.e. one the engine can report on at field-declaration positions.
type trackedStruct struct {
	key trackedKey
	st  *types.Struct
}

// writeSite is one store to a tracked field.
type writeSite struct {
	pkg    *Package
	node   flowNode
	target fieldRef
	// sources are the tracked fields the right-hand side reads: the flow
	// edges of the provenance graph.
	sources map[fieldRef]bool
	// rhs is the stored expression; nil for &field call arguments, where
	// derivation is judged from the enclosing node's env/flag taint alone.
	rhs    ast.Expr
	inits  map[types.Object]ast.Expr
	params map[types.Object]bool
}

// compositeSite is a composite literal of a tracked struct type, recorded
// with the set of fields it populates (for the lossy-copy check).
type compositeSite struct {
	pkg    *Package
	topFn  *types.Func
	lit    *ast.CompositeLit
	strct  trackedKey
	fields map[string]bool
}

// ifaceCall is a call through an interface method, resolved after every
// concrete method has been collected.
type ifaceCall struct {
	caller flowNode
	name   string
	iface  *types.Interface
}

// fieldFlow accumulates packages during the Run phase and builds the whole
// graph when optflow's Finish hook fires.
type fieldFlow struct {
	fset *token.FileSet
	seen map[*Package]bool
	pkgs []*Package

	structs map[trackedKey]*trackedStruct

	methods  map[string][]*types.Func
	nodePkg  map[flowNode]string // declaring package path (decl nodes and lits)
	reads    map[flowNode]map[fieldRef]bool
	calls    map[flowNode]map[flowNode]bool
	tainted  map[flowNode]bool
	skipRead map[*ast.SelectorExpr]bool

	writes     []*writeSite
	composites []compositeSite
	ifaceCalls []ifaceCall
}

func newFieldFlow() *fieldFlow {
	return &fieldFlow{
		seen:     make(map[*Package]bool),
		structs:  make(map[trackedKey]*trackedStruct),
		methods:  make(map[string][]*types.Func),
		nodePkg:  make(map[flowNode]string),
		reads:    make(map[flowNode]map[fieldRef]bool),
		calls:    make(map[flowNode]map[flowNode]bool),
		tainted:  make(map[flowNode]bool),
		skipRead: make(map[*ast.SelectorExpr]bool),
	}
}

// add is the shared Run hook: it only collects packages; all analysis is
// deferred to build so cross-package references resolve regardless of the
// order packages arrive in.
func (e *fieldFlow) add(p *Pass) {
	if e.fset == nil {
		e.fset = p.Fset
	}
	if !e.seen[p.Pkg] {
		e.seen[p.Pkg] = true
		e.pkgs = append(e.pkgs, p.Pkg)
	}
}

// trackedKeyOf matches a type against the tracked-struct contract:
// Options declared in a package ending /internal/core, Params in one
// ending /internal/experiments.
func trackedKeyOf(t types.Type) (trackedKey, bool) {
	if t == nil {
		return trackedKey{}, false
	}
	t = types.Unalias(t)
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return trackedKey{}, false
	}
	path := strings.TrimSuffix(n.Obj().Pkg().Path(), ".test")
	name := n.Obj().Name()
	switch {
	case name == "Options" && strings.HasSuffix(path, "/internal/core"),
		name == "Params" && strings.HasSuffix(path, "/internal/experiments"):
		return trackedKey{pkg: path, name: name}, true
	}
	return trackedKey{}, false
}

func structUnder(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = types.Unalias(p.Elem())
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func origin(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// fieldRefOf resolves a selector expression to a tracked-field reference.
func (e *fieldFlow) fieldRefOf(pkg *Package, sel *ast.SelectorExpr) (fieldRef, bool) {
	v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return fieldRef{}, false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok {
		return fieldRef{}, false
	}
	key, ok := trackedKeyOf(tv.Type)
	if !ok {
		return fieldRef{}, false
	}
	return fieldRef{owner: key, field: sel.Sel.Name}, true
}

func (e *fieldFlow) addRead(node flowNode, ref fieldRef) {
	m := e.reads[node]
	if m == nil {
		m = make(map[fieldRef]bool)
		e.reads[node] = m
	}
	m[ref] = true
}

func (e *fieldFlow) addCall(from, to flowNode) {
	m := e.calls[from]
	if m == nil {
		m = make(map[flowNode]bool)
		e.calls[from] = m
	}
	m[to] = true
}

// trackedReadsIn collects the tracked fields an expression reads.
func (e *fieldFlow) trackedReadsIn(pkg *Package, expr ast.Expr) map[fieldRef]bool {
	out := make(map[fieldRef]bool)
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if ref, ok := e.fieldRefOf(pkg, sel); ok {
				out[ref] = true
			}
		}
		return true
	})
	return out
}

// walkCtx is the per-top-level-declaration walk state.
type walkCtx struct {
	pkg   *Package
	topFn *types.Func
	inits map[types.Object]ast.Expr
}

// collectInits indexes local initialisations across a whole declaration
// (including inside its closures): x := e, var x = e, multi-value x, y :=
// f() (both map to the call), and range variables (mapping to the ranged
// expression). It is a provenance heuristic, not SSA: reassignments are not
// invalidated, and exprDerived bounds its chase depth.
func collectInits(info *types.Info, body ast.Node) map[types.Object]ast.Expr {
	inits := make(map[types.Object]ast.Expr)
	record := func(id ast.Expr, expr ast.Expr) {
		ident, ok := id.(*ast.Ident)
		if !ok || ident.Name == "_" {
			return
		}
		if obj := info.Defs[ident]; obj != nil {
			inits[obj] = expr
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE {
				return true
			}
			if len(v.Rhs) == len(v.Lhs) {
				for i, lhs := range v.Lhs {
					record(lhs, v.Rhs[i])
				}
			} else if len(v.Rhs) == 1 {
				for _, lhs := range v.Lhs {
					record(lhs, v.Rhs[0])
				}
			}
		case *ast.RangeStmt:
			if v.Tok == token.DEFINE {
				if v.Key != nil {
					record(v.Key, v.X)
				}
				if v.Value != nil {
					record(v.Value, v.X)
				}
			}
		case *ast.ValueSpec:
			if len(v.Values) == len(v.Names) {
				for i, name := range v.Names {
					record(name, v.Values[i])
				}
			} else if len(v.Values) == 1 {
				for _, name := range v.Names {
					record(name, v.Values[0])
				}
			}
		}
		return true
	})
	return inits
}

func addFieldListParams(info *types.Info, fl *ast.FieldList, out map[types.Object]bool) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
}

// build runs the whole-program passes; add must have seen every package
// first (Finish-phase only).
func (e *fieldFlow) build() {
	for _, pkg := range e.pkgs {
		if strings.HasSuffix(pkg.Path, ".test") {
			continue
		}
		e.collectStructs(pkg)
		for _, f := range pkg.Files {
			if pkg.IsTestFile(e.fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := funcNode(fn)
				e.nodePkg[node] = strings.TrimSuffix(pkg.Path, ".test")
				if fd.Recv != nil {
					e.methods[fn.Name()] = append(e.methods[fn.Name()], fn)
				}
				ctx := &walkCtx{pkg: pkg, topFn: fn, inits: collectInits(pkg.Info, fd.Body)}
				params := make(map[types.Object]bool)
				addFieldListParams(pkg.Info, fd.Type.Params, params)
				e.walkBody(ctx, node, params, fd.Body)
			}
		}
	}
	// Interface calls dispatch to every analysed concrete implementation.
	for _, ic := range e.ifaceCalls {
		for _, m := range e.methods[ic.name] {
			sig, ok := m.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			recv := sig.Recv().Type()
			if types.Implements(recv, ic.iface) || types.Implements(types.NewPointer(recv), ic.iface) {
				e.addCall(ic.caller, funcNode(m))
			}
		}
	}
	// Transitive fixpoints: field reads and env/flag taint both flow from
	// callee to caller.
	for changed := true; changed; {
		changed = false
		for n, callees := range e.calls {
			for c := range callees {
				if e.tainted[c] && !e.tainted[n] {
					e.tainted[n] = true
					changed = true
				}
				for f := range e.reads[c] {
					if !e.reads[n][f] {
						e.addRead(n, f)
						changed = true
					}
				}
			}
		}
	}
}

// collectStructs records tracked structs declared in this analysis package
// so findings can be reported at field declarations.
func (e *fieldFlow) collectStructs(pkg *Package) {
	for _, name := range []string{"Options", "Params"} {
		tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		key, ok := trackedKeyOf(tn.Type())
		if !ok || key.pkg != strings.TrimSuffix(pkg.Path, ".test") {
			continue
		}
		st := structUnder(tn.Type())
		if st == nil || e.structs[key] != nil {
			continue
		}
		e.structs[key] = &trackedStruct{key: key, st: st}
	}
}

func (e *fieldFlow) walkBody(ctx *walkCtx, node flowNode, params map[types.Object]bool, body ast.Node) {
	info := ctx.pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			child := flowNode{lit: v.Pos()}
			e.nodePkg[child] = strings.TrimSuffix(ctx.pkg.Path, ".test")
			e.addCall(node, child)
			cp := make(map[types.Object]bool, len(params)+4)
			for o := range params {
				cp[o] = true
			}
			addFieldListParams(info, v.Type.Params, cp)
			e.walkBody(ctx, child, cp, v.Body)
			return false
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				ref, ok := e.fieldRefOf(ctx.pkg, sel)
				if !ok {
					continue
				}
				e.skipRead[sel] = true
				var rhs ast.Expr
				if len(v.Rhs) == len(v.Lhs) {
					rhs = v.Rhs[i]
				} else if len(v.Rhs) == 1 {
					rhs = v.Rhs[0]
				}
				e.addWrite(ctx, node, params, ref, rhs)
			}
		case *ast.UnaryExpr:
			// &o.Field passed along (the ParamsFromEnv get(name, &p.X)
			// pattern): a write whose derivation is the caller's taint.
			if v.Op == token.AND {
				if sel, ok := ast.Unparen(v.X).(*ast.SelectorExpr); ok {
					if ref, ok := e.fieldRefOf(ctx.pkg, sel); ok {
						e.addWrite(ctx, node, params, ref, nil)
					}
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[v]
			if !ok {
				return true
			}
			key, ok := trackedKeyOf(tv.Type)
			if !ok {
				return true
			}
			st := structUnder(tv.Type)
			fields := make(map[string]bool)
			for i, elt := range v.Elts {
				var fname string
				var val ast.Expr
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						fname = id.Name
					}
					val = kv.Value
				} else if st != nil && i < st.NumFields() {
					fname = st.Field(i).Name()
					val = elt
				}
				if fname == "" {
					continue
				}
				fields[fname] = true
				e.addWrite(ctx, node, params, fieldRef{owner: key, field: fname}, val)
			}
			e.composites = append(e.composites, compositeSite{
				pkg: ctx.pkg, topFn: ctx.topFn, lit: v, strct: key, fields: fields,
			})
		case *ast.SelectorExpr:
			if e.skipRead[v] {
				return true
			}
			if ref, ok := e.fieldRefOf(ctx.pkg, v); ok {
				e.addRead(node, ref)
			}
		case *ast.CallExpr:
			e.visitCall(ctx, node, v)
		case *ast.Ident:
			// Function-value references (registry Run fields, callbacks)
			// become conservative call edges.
			if f, ok := info.Uses[v].(*types.Func); ok {
				e.addCall(node, funcNode(f))
			}
		}
		return true
	})
}

func (e *fieldFlow) addWrite(ctx *walkCtx, node flowNode, params map[types.Object]bool, ref fieldRef, rhs ast.Expr) {
	w := &writeSite{pkg: ctx.pkg, node: node, target: ref, rhs: rhs, inits: ctx.inits, params: params}
	if rhs != nil {
		w.sources = e.trackedReadsIn(ctx.pkg, rhs)
	}
	e.writes = append(e.writes, w)
}

func (e *fieldFlow) visitCall(ctx *walkCtx, node flowNode, call *ast.CallExpr) {
	fn := calleeFunc(ctx.pkg.Info, call)
	if fn == nil {
		return
	}
	fn = origin(fn)
	if p := fn.Pkg(); p != nil {
		path := p.Path()
		if path == "flag" || (path == "os" && (fn.Name() == "Getenv" || fn.Name() == "LookupEnv")) {
			e.tainted[node] = true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			e.ifaceCalls = append(e.ifaceCalls, ifaceCall{caller: node, name: fn.Name(), iface: iface})
			return
		}
	}
	e.addCall(node, funcNode(fn))
}

// exprDerived reports whether an expression's value can originate outside
// the program: a flag/env read (directly, via a local whose initialiser
// chains to one, or via a call into an env/flag-reading module function),
// or a parameter of the enclosing function — which, combined with the
// writes-reachable-from-main restriction, means a value the CLI threaded
// down. Constants and fixed sweep literals are not derived.
func (e *fieldFlow) exprDerived(pkg *Package, expr ast.Expr, inits map[types.Object]ast.Expr, params map[types.Object]bool, depth int) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pkg.Info, v); fn != nil {
				fn = origin(fn)
				if p := fn.Pkg(); p != nil {
					if p.Path() == "flag" || (p.Path() == "os" && (fn.Name() == "Getenv" || fn.Name() == "LookupEnv")) {
						found = true
						return false
					}
				}
				if e.tainted[funcNode(fn)] {
					found = true
					return false
				}
			}
		case *ast.Ident:
			obj := pkg.Info.Uses[v]
			if obj == nil {
				return true
			}
			if params[obj] {
				found = true
				return false
			}
			if init, ok := inits[obj]; ok && depth > 0 {
				if e.exprDerived(pkg, init, inits, params, depth-1) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// writeDerived reports whether a write can carry an outside-world value.
func (e *fieldFlow) writeDerived(w *writeSite) bool {
	if e.tainted[w.node] {
		return true
	}
	if w.rhs == nil {
		return false
	}
	return e.exprDerived(w.pkg, w.rhs, w.inits, w.params, 4)
}

// pkgPresent reports whether an analysed package path ends in suffix.
func (e *fieldFlow) pkgPresent(suffix string) bool {
	for _, pkg := range e.pkgs {
		if strings.HasSuffix(strings.TrimSuffix(pkg.Path, ".test"), suffix) {
			return true
		}
	}
	return false
}

// sortedNodes returns a node set's members ordered by (key, lit) so graph
// walks expand in one deterministic order however the sets were built.
func sortedNodes(m map[flowNode]bool) []flowNode {
	out := make([]flowNode, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].lit < out[j].lit
	})
	return out
}

// bfs expands seeds over the call graph in deterministic order, marking
// every reachable node in seen.
func (e *fieldFlow) bfs(seen map[flowNode]bool, queue []flowNode) map[flowNode]bool {
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range sortedNodes(e.calls[n]) {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return seen
}

// reachableFrom returns every node reachable from the declared functions
// of packages whose path ends in suffix.
func (e *fieldFlow) reachableFrom(suffix string) map[flowNode]bool {
	roots := make(map[flowNode]bool)
	for node, pkgPath := range e.nodePkg {
		if node.lit == token.NoPos && strings.HasSuffix(pkgPath, suffix) {
			roots[node] = true
		}
	}
	seeds := sortedNodes(roots)
	return e.bfs(roots, seeds)
}

// sortedStructs returns the reportable tracked structs in stable order.
func (e *fieldFlow) sortedStructs() []*trackedStruct {
	keys := make([]trackedKey, 0, len(e.structs))
	for k := range e.structs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].name < keys[j].name
	})
	out := make([]*trackedStruct, 0, len(keys))
	for _, k := range keys {
		out = append(out, e.structs[k])
	}
	return out
}

// diagAt builds a Diagnostic at pos (Finish hooks bypass Pass.Reportf).
func (e *fieldFlow) diagAt(analyzer string, pos token.Pos, msg string) Diagnostic {
	position := e.fset.Position(pos)
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  msg,
	}
}
