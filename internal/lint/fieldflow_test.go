package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixtureTree loads every package directory under testdata/<name> using
// its real module import path (repro/internal/lint/testdata/<name>/...), so
// the path-suffix scoping of the field-provenance analyzers (/internal/core,
// /internal/experiments, /internal/pool, /cmd/renuca-*) sees the fixture
// tree exactly the way it sees the module, and cross-package imports inside
// the fixture resolve to the same path strings the analysis packages use.
func loadFixtureTree(t *testing.T, l *Loader, name string) []*Package {
	t.Helper()
	root := filepath.Join("testdata", name)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if !d.IsDir() {
			return nil
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path := "repro/internal/lint/" + filepath.ToSlash(dir)
		got, err := l.LoadDir(dir, path)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, got...)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture tree %s contains no packages", name)
	}
	return pkgs
}

// collectWantsTree scans every .go file under root (recursively) for want
// comments.
func collectWantsTree(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: d.Name(), line: i + 1, pattern: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// matchWants checks diagnostics against want comments in both directions:
// every want must be hit, and no diagnostic may lack a want. Fixture file
// base names must be unique within one fixture (matching is by base name).
func matchWants(t *testing.T, label string, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		base := filepath.Base(d.File)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == base && w.line == d.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a %s diagnostic matching %q, got none", w.file, w.line, label, w.pattern)
		}
	}
}

// runFixtureTree executes one analyzer over a multi-package fixture tree.
func runFixtureTree(t *testing.T, fixture, analyzer string) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := loadFixtureTree(t, l, fixture)
	diags := RunAnalyzers(l.Fset, pkgs, []*Analyzer{analyzerByName(t, analyzer)})
	matchWants(t, analyzer, diags, collectWantsTree(t, filepath.Join("testdata", fixture)))
}

func TestOptflowFixture(t *testing.T) { runFixtureTree(t, "optflow", "optflow") }
func TestKeyflowFixture(t *testing.T) { runFixtureTree(t, "keyflow", "keyflow") }

// runAllowFixture runs the FULL analyzer roster over a single-package
// fixture: the allow-hardening diagnostics (unknown analyzer, stale allow)
// come from the runner itself, not from any one analyzer.
func runAllowFixture(t *testing.T, name string) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, l, name)
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, NewAnalyzers())
	matchWants(t, name, diags, collectWants(t, filepath.Join("testdata", name)))
}

func TestUnknownAllowFixture(t *testing.T) { runAllowFixture(t, "allowunknown") }
func TestStaleAllowFixture(t *testing.T)   { runAllowFixture(t, "allowstale") }

// BenchmarkLintRepo measures one full lint pass — parse and type-check the
// whole module (including GOROOT source for stdlib imports), then run all
// twelve analyzers. This is the cost `make lint` and the CI gate pay.
func BenchmarkLintRepo(b *testing.B) {
	root := moduleRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		if diags := RunAnalyzers(l.Fset, pkgs, NewAnalyzers()); len(diags) != 0 {
			b.Fatalf("repo not clean: %v", diags)
		}
	}
}
