package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// newStatsMerge is the whole-program counter-completeness check: every
// exported numeric field of a Stats-like struct (a struct named Stats or
// ending in Stats/Counters/Counts, or any struct in internal/stats)
// must be read somewhere — by a merge, snapshot, render, or reporting
// function. A counter that is incremented but never read has silently
// dropped out of every report, which is how a metric regression hides.
//
// References are matched per (package, field name): a same-named field on a
// sibling struct in one package can mask a dropped counter, a deliberate
// imprecision that keeps embedded/promoted field reads attributable
// without whole-program data flow.
func newStatsMerge() *Analyzer {
	a := &Analyzer{
		Name: "statsmerge",
		Doc:  "flags exported numeric Stats-struct fields never read by merge/snapshot/render code",
	}
	type declField struct {
		pos        token.Position
		structName string
		fieldName  string
	}
	declared := make(map[string]declField) // "pkg.Field" -> decl site
	referenced := make(map[string]bool)    // "pkg.Field"

	a.Run = func(p *Pass) {
		info := p.Pkg.Info
		pkgPath := strings.TrimSuffix(p.Pkg.Path, ".test")
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !statsLike(pkgPath, ts.Name.Name) {
					return true
				}
				for _, field := range st.Fields.List {
					tv, ok := info.Types[field.Type]
					if !ok || !numericCarrier(tv.Type) {
						continue
					}
					for _, name := range field.Names {
						if !name.IsExported() {
							continue
						}
						key := pkgPath + "." + name.Name
						if _, ok := declared[key]; !ok {
							declared[key] = declField{
								pos:        p.Fset.Position(name.Pos()),
								structName: ts.Name.Name,
								fieldName:  name.Name,
							}
						}
					}
				}
				return true
			})
		}
		// Any use of a field identifier counts as a reference: selector
		// reads/writes and keyed composite literals both resolve the field
		// object into Uses. Increment-only fields still count — the check
		// targets fields with no uses at all outside their declaration.
		for _, obj := range info.Uses {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || v.Pkg() == nil {
				continue
			}
			refPkg := strings.TrimSuffix(v.Pkg().Path(), ".test")
			referenced[refPkg+"."+v.Name()] = true
		}
	}
	a.Finish = func(report func(Diagnostic)) {
		var keys []string
		for key := range declared {
			if !referenced[key] {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			d := declared[key]
			report(diagnosticAt(a.Name, d.pos,
				"counter %s.%s is never read by any merge/snapshot/render code; it silently drops out of every report (wire it into the reporting path or remove it)",
				d.structName, d.fieldName))
		}
	}
	return a
}

// statsLike reports whether a struct named name in pkgPath is held to the
// counter-completeness contract.
func statsLike(pkgPath, name string) bool {
	if strings.HasSuffix(pkgPath, "/internal/stats") {
		return true
	}
	return name == "Stats" ||
		strings.HasSuffix(name, "Stats") ||
		strings.HasSuffix(name, "Counters") ||
		strings.HasSuffix(name, "Counts")
}

// numericCarrier reports whether t carries numeric data a merge or snapshot
// would have to copy: a numeric basic type, a slice or
// fixed-size array of carrier elements (histograms are arrays of buckets),
// or a struct with at least one exported carrier field (nested sub-stat
// structs, and slices/arrays of them). Composition is followed to a
// bounded depth so self-referential types cannot recurse forever.
func numericCarrier(t types.Type) bool { return numericCarrierAt(t, 0) }

func numericCarrierAt(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsNumeric != 0
	case *types.Slice:
		return numericCarrierAt(u.Elem(), depth+1)
	case *types.Array:
		return numericCarrierAt(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if f.Exported() && numericCarrierAt(f.Type(), depth+1) {
				return true
			}
		}
	}
	return false
}
