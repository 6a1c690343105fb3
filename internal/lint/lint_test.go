package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// want is one expected diagnostic, parsed from a `// want `+"`pattern`"
// comment in a fixture file.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("want `([^`]+)`")

// analyzerByName returns a fresh instance of one analyzer.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range NewAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// loadFixture type-checks testdata/<name> under the import path given by
// its //lint:as directive (so path-scoped analyzers see the package as part
// of the simulation tree).
func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", name)
	path := "fixture/" + name
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "//lint:as "); ok {
				path = strings.TrimSpace(rest)
			}
		}
	}
	pkgs, err := l.LoadDir(dir, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// collectWants scans the fixture sources for want comments.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, m[1], err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, pattern: re})
			}
		}
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

// runFixture executes one analyzer over its fixture corpus and matches the
// resulting diagnostics against the want comments.
func runFixture(t *testing.T, name string) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, l, name)
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, []*Analyzer{analyzerByName(t, name)})
	matchWants(t, name, diags, collectWants(t, filepath.Join("testdata", name)))
}

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

func TestNondeterminismFixture(t *testing.T) { runFixture(t, "nondeterminism") }
func TestMapOrderFixture(t *testing.T)       { runFixture(t, "maporder") }
func TestStatsMergeFixture(t *testing.T)     { runFixture(t, "statsmerge") }
func TestSeedFlowFixture(t *testing.T)       { runFixture(t, "seedflow") }
func TestPoolSlotFixture(t *testing.T)       { runFixture(t, "poolslot") }
func TestAllocFreeFixture(t *testing.T)      { runFixture(t, "allocfree") }
func TestHotDivFixture(t *testing.T)         { runFixture(t, "hotdiv") }
func TestInvariantCallFixture(t *testing.T)  { runFixture(t, "invariantcall") }
func TestGoroLeakFixture(t *testing.T)       { runFixture(t, "goroleak") }
func TestUnknownAllowFixture(t *testing.T)   { runAllowFixture(t, "allowunknown") }
func TestStaleAllowFixture(t *testing.T)     { runAllowFixture(t, "allowstale") }

// TestLoaderSkipsTaggedOutFiles pins the loader's build-constraint
// filtering: the buildtag fixture's two files declare the same names under
// //go:build simcheck and !simcheck, so loading only type-checks when the
// loader picks exactly the file set `go build` (no tags) would compile.
func TestLoaderSkipsTaggedOutFiles(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, l, "buildtag")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (the !simcheck variant only)", len(pkg.Files))
	}
	c, ok := pkg.Types.Scope().Lookup("Variant").(*types.Const)
	if !ok {
		t.Fatal("Variant not in package scope")
	}
	if got := c.Val().ExactString(); got != `"off"` {
		t.Errorf("Variant = %s, want the !simcheck value %q", got, "off")
	}
}

// TestMalformedAllow checks that an allow annotation without a reason is
// itself reported rather than silently honoured.
func TestMalformedAllow(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, l, "allow")
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, NewAnalyzers())
	var gotMalformed, gotSuppressedAnyway bool
	for _, d := range diags {
		if d.Analyzer == "allow" && strings.Contains(d.Message, "malformed") {
			gotMalformed = true
		}
		if d.Analyzer == "nondeterminism" {
			gotSuppressedAnyway = true
		}
	}
	if !gotMalformed {
		t.Errorf("missing malformed-allow diagnostic; got %v", diags)
	}
	// A reasonless allow still names its analyzer... it must NOT suppress:
	// the annotation is invalid, so the underlying finding stays visible.
	if !gotSuppressedAnyway {
		t.Errorf("reasonless //lint:allow suppressed the underlying diagnostic; got %v", diags)
	}
}

// TestRepoIsClean runs every analyzer over the entire module: the gate
// `make lint` enforces, replayed inside `go test` so tier-1 verification
// catches violations even without the Makefile.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against GOROOT source; skipped in -short")
	}
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages — loader is missing most of the module", len(pkgs))
	}
	diags := RunAnalyzers(l.Fset, pkgs, NewAnalyzers())
	for _, d := range diags {
		t.Errorf("repo violation: %s", d)
	}
}

// TestAnalyzerRoster pins the analyzer set the documentation promises.
func TestAnalyzerRoster(t *testing.T) {
	got := strings.Join(AnalyzerNames(), ",")
	want := "nondeterminism,maporder,statsmerge,seedflow,poolslot,allocfree,hotdiv,invariantcall,goroleak"
	if got != want {
		t.Errorf("analyzer roster %q, want %q", got, want)
	}
	for _, a := range NewAnalyzers() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}
}

// TestDiagnosticString pins the file:line:col format the Makefile gate and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "maporder", File: "x.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "x.go:3:7: [maporder] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// BenchmarkLintRepo measures one full lint pass — parse and type-check the
// whole module (including GOROOT source for stdlib imports), then run all
// nine analyzers. This is the cost `make lint` and the CI gate pay.
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
