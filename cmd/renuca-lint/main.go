// Command renuca-lint runs the project's seven domain analyzers (package
// internal/lint) — determinism, stats-invariant, goroutine-confinement,
// hot-path allocation/divide and sanitizer-coverage checks — over the whole
// module and prints each violation as
//
//	file:line:col: [analyzer] message
//
// It exits 0 on a clean tree, 1 when any diagnostic is reported, and 2 on
// usage or load errors, so `make check` can gate on it.
//
// Usage:
//
//	renuca-lint          # lint the module containing the working directory
//	renuca-lint -list    # analyzer names and docs
//
// It takes no package arguments: whole-program checks like statsmerge need
// every reference site, so the whole module is always loaded and reported.
// Suppress an intentional exception at its line (or the line above) with:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

const usage = "usage: renuca-lint [-list]"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the module containing the working directory, writing
// diagnostics to stdout, and returns the exit code: 0 clean, 1 violations,
// 2 usage or load error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("renuca-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, usage) }
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "renuca-lint: unexpected argument %q; the whole module is always linted\n%s\n", fs.Arg(0), usage)
		return 2
	}

	if *list {
		for _, a := range lint.NewAnalyzers() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	var diags []lint.Diagnostic
	if err == nil {
		diags, err = lintModule(cwd)
	}
	if err != nil {
		fmt.Fprintln(stderr, "renuca-lint:", err)
		return 2
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.File); err == nil && !strings.HasPrefix(rel, "..") {
			d.File = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "renuca-lint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// lintModule loads the module containing dir and runs every analyzer over
// it.
func lintModule(dir string) ([]lint.Diagnostic, error) {
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	return lint.RunAnalyzers(loader.Fset, pkgs, lint.NewAnalyzers()), nil
}
