//go:build !simcheck

package cpu

// Without the simcheck build tag the sanitizer hook is an empty no-op the
// compiler erases. Build with `-tags simcheck` (make simcheck) to arm the
// implementation in sancheck_on.go.

func (c *Core) sanCheckCommit() {}
