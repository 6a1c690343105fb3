package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis. For a directory
// with in-package _test.go files the analysis package includes them (they
// are part of the determinism surface: benchmark timing, golden rendering);
// a directory's external test package (package foo_test) is loaded as its
// own Package with an importable view of foo resolved normally.
type Package struct {
	// Path is the import path ("repro/internal/sim"). External test
	// packages carry the ".test" suffix ("repro/internal/stats.test").
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// IsTestFile reports whether pos sits in a _test.go file.
func (p *Package) IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Loader parses and type-checks every package of one Go module using only
// the standard library: module-internal imports are resolved by recursively
// type-checking their directories, and standard-library imports go through
// go/importer's source importer (which type-checks GOROOT source, so no
// compiled export data or `go list` subprocess is needed).
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	std     types.ImporterFrom
	imports map[string]*types.Package // import view: non-test files only
	loading map[string]bool           // cycle guard
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// NewLoader builds a Loader for the module rooted at dir (the directory
// holding go.mod).
func NewLoader(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", dir)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModuleDir:  dir,
		ModulePath: modPath,
		imports:    make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	l.std = src
	return l, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom, routing module-internal paths
// to the recursive directory type-checker and everything else to the
// standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importModule(path)
	}
	return l.std.ImportFrom(path, dir, 0)
}

// importModule type-checks the non-test files of a module-internal package
// (memoised) so other packages can import it.
func (l *Loader) importModule(path string) (*types.Package, error) {
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.ModuleDir
	if rel, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		dir = filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var primary []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(l.Fset.Position(f.Pos()).Filename, "_test.go") {
			primary = append(primary, f)
		}
	}
	if len(primary) == 0 {
		return nil, fmt.Errorf("lint: %s has no non-test Go files", path)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, primary, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.imports[path] = pkg
	return pkg, nil
}

// parseDir parses every .go file of dir with comments preserved, sorted by
// file name for deterministic package file order. Files whose //go:build
// constraint is not satisfied by the default build configuration are
// skipped, so tag-gated implementation pairs (the simcheck sanitizer's
// sancheck_on.go/sancheck_off.go files) don't collide during type-checking;
// the analyzers see exactly what a plain `go build` compiles.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !buildIncluded(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// buildIncluded reports whether f's //go:build constraint (if any) holds in
// the default build configuration: host GOOS/GOARCH, the gc toolchain, any
// go1.N version, and no custom tags — in particular simcheck is off.
func buildIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
					strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// LoadDir type-checks one directory as an analysis package under the given
// import path, including in-package _test.go files. If the directory also
// contains an external test package (package foo_test), it is returned as a
// second Package. A directory whose only files are in-package tests (a
// test-only package like the repo root) is still loaded as one package.
func (l *Loader) LoadDir(dir, path string) ([]*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	// The primary package name: prefer non-test files, else the in-package
	// test files (any package name not ending in _test).
	primaryName := ""
	for _, f := range files {
		name := f.Name.Name
		isTest := strings.HasSuffix(l.Fset.Position(f.Pos()).Filename, "_test.go")
		if !isTest {
			primaryName = name
			break
		}
		if primaryName == "" && !strings.HasSuffix(name, "_test") {
			primaryName = name
		}
	}
	var analysis, external []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Name.Name, "_test") && f.Name.Name != primaryName {
			external = append(external, f)
		} else {
			analysis = append(analysis, f)
		}
	}
	var pkgs []*Package
	check := func(files []*ast.File, path string) (*Package, error) {
		info := newInfo()
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(path, l.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
	}
	if len(analysis) > 0 {
		p, err := check(analysis, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if len(external) > 0 {
		p, err := check(external, path+".test")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadAll walks the module tree and loads every package (skipping testdata,
// vendor, and dot-directories), in deterministic path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModuleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		ps, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}
