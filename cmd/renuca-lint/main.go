// Command renuca-lint runs the project's nine domain analyzers (package
// internal/lint) — determinism, stats-invariant, hot-path allocation/divide,
// sanitizer-coverage and concurrency-safety checks — over the module and
// reports violations as file:line:col diagnostics. It exits 0 on a clean
// tree, 1 when any diagnostic is reported, and 2 on usage or load errors,
// so `make check` can gate on it.
//
// Usage:
//
//	renuca-lint ./...                       # whole module (the normal gate)
//	renuca-lint ./internal/experiments      # report one package only
//	renuca-lint -disable maporder ./...     # all but one analyzer
//	renuca-lint -enable seedflow ./...      # exactly one analyzer
//	renuca-lint -json ./...                 # machine-readable diagnostics
//	renuca-lint -check-json < lint.json     # validate -json output schema
//	renuca-lint -github ./...               # GitHub Actions ::error annotations
//	renuca-lint -list                       # analyzer names and docs
//
// The whole module is always loaded and type-checked (whole-program checks
// like statsmerge need every reference site); package arguments only filter
// which diagnostics are reported. Suppress an intentional exception at its
// line (or the line above) with:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	checkJSON := flag.Bool("check-json", false, "validate -json output (read from stdin) against the diagnostic schema and exit")
	githubOut := flag.Bool("github", false, "emit diagnostics as GitHub Actions ::error annotations")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *jsonOut && *githubOut {
		fmt.Fprintln(os.Stderr, "renuca-lint: -json and -github are mutually exclusive")
		os.Exit(2)
	}

	if *checkJSON {
		if err := validateJSON(os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "renuca-lint: -check-json:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, a := range lint.NewAnalyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-lint:", err)
		os.Exit(2)
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-lint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-lint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "renuca-lint:", err)
		os.Exit(2)
	}

	diags := lint.RunAnalyzers(loader.Fset, pkgs, analyzers)
	diags = filterToArgs(diags, flag.Args(), moduleDir)

	cwd, _ := os.Getwd()
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	switch {
	case *jsonOut:
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "renuca-lint:", err)
			os.Exit(2)
		}
	case *githubOut:
		for _, d := range diags {
			fmt.Println(githubAnnotation(d))
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "renuca-lint: %d violation(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// validateJSON checks a -json diagnostics document against the schema CI
// consumers parse: a top-level array whose elements carry exactly the keys
// analyzer, file, line, col, message — strings non-empty, line and col
// integers >= 1. A drifted field name or type fails here instead of
// silently producing empty annotations downstream.
func validateJSON(r io.Reader) error {
	dec := json.NewDecoder(r)
	var doc []map[string]any
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("not a JSON array of diagnostics: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the diagnostics array")
	}
	wantKeys := []string{"analyzer", "file", "line", "col", "message"}
	for i, d := range doc {
		if len(d) != len(wantKeys) {
			return fmt.Errorf("diagnostic %d has %d keys, want exactly %d (%s)",
				i, len(d), len(wantKeys), strings.Join(wantKeys, ", "))
		}
		for _, k := range []string{"analyzer", "file", "message"} {
			v, ok := d[k]
			if !ok {
				return fmt.Errorf("diagnostic %d is missing key %q", i, k)
			}
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("diagnostic %d: %q is %T, want string", i, k, v)
			}
			if s == "" {
				return fmt.Errorf("diagnostic %d: %q is empty", i, k)
			}
		}
		for _, k := range []string{"line", "col"} {
			v, ok := d[k]
			if !ok {
				return fmt.Errorf("diagnostic %d is missing key %q", i, k)
			}
			n, ok := v.(float64)
			if !ok {
				return fmt.Errorf("diagnostic %d: %q is %T, want number", i, k, v)
			}
			if n != float64(int(n)) || n < 1 {
				return fmt.Errorf("diagnostic %d: %q = %v, want integer >= 1", i, k, v)
			}
		}
	}
	return nil
}

// githubAnnotation renders one diagnostic as a GitHub Actions workflow
// command, which the runner turns into an inline PR annotation:
//
//	::error file=internal/x.go,line=3,col=7,title=renuca-lint (maporder)::message
//
// Properties and message use the runner's escaping rules: % CR LF always,
// plus : and , inside property values.
func githubAnnotation(d lint.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		escapeProperty(d.File), d.Line, d.Col,
		escapeProperty("renuca-lint ("+d.Analyzer+")"),
		escapeData(d.Message))
}

func escapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

func escapeProperty(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

// selectAnalyzers applies -enable/-disable to the full analyzer set.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	all := lint.NewAnalyzers()
	known := make(map[string]bool)
	for _, a := range all {
		known[a.Name] = true
	}
	parse := func(csv string) (map[string]bool, error) {
		set := make(map[string]bool)
		if csv == "" {
			return set, nil
		}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(lint.AnalyzerNames(), ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var picked []*lint.Analyzer
	for _, a := range all {
		if len(on) > 0 && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		picked = append(picked, a)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return picked, nil
}

// findModuleRoot walks up from the working directory to the go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// filterToArgs keeps diagnostics under the requested package directories.
// "./..." (or no argument) keeps everything.
func filterToArgs(diags []lint.Diagnostic, args []string, moduleDir string) []lint.Diagnostic {
	var dirs []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return diags
		}
		dirs = append(dirs, filepath.Clean(strings.TrimSuffix(arg, "/...")))
	}
	if len(dirs) == 0 {
		return diags
	}
	cwd, err := os.Getwd()
	if err != nil {
		return diags
	}
	var kept []lint.Diagnostic
	for _, d := range diags {
		rel, err := filepath.Rel(cwd, d.File)
		if err != nil {
			continue
		}
		for _, dir := range dirs {
			if prefix := dir + string(filepath.Separator); strings.HasPrefix(rel, prefix) || filepath.Dir(rel) == dir {
				kept = append(kept, d)
				break
			}
		}
	}
	return kept
}
