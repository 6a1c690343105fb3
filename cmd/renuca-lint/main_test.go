package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunUsage pins the command-line surface: -list is the only flag and
// there are no positional arguments, so a stale invocation (a package
// pattern, or a removed flag) exits 2 with the usage line instead of being
// silently ignored.
func TestRunUsage(t *testing.T) {
	for _, c := range []struct {
		args      []string
		code      int
		stdoutHas string
	}{
		{args: []string{"-list"}, code: 0, stdoutHas: "poolslot"},
		{args: []string{"./..."}, code: 2},
		{args: []string{"-list", "./internal/sim"}, code: 2},
		{args: []string{"-json"}, code: 2},
		{args: []string{"-enable", "maporder"}, code: 2},
		{args: []string{"-github", "./..."}, code: 2},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code {
			t.Errorf("run(%q) = %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if c.code == 2 && !strings.Contains(stderr.String(), usage) {
			t.Errorf("run(%q): stderr %q lacks the usage line", c.args, stderr.String())
		}
		if c.code == 0 && !strings.Contains(stdout.String(), c.stdoutHas) {
			t.Errorf("run(%q): stdout %q lacks %q", c.args, stdout.String(), c.stdoutHas)
		}
	}
}
