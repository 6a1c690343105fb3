//go:build !simcheck

package nuca

// Without the simcheck build tag the sanCheck* hooks are empty no-ops the
// compiler erases; the zero-alloc benchmarks pin the release-build cost at
// zero. Build with `-tags simcheck` (make simcheck) to arm the
// implementations in sancheck_on.go.

func (l *LLC) sanCheckBankService(bank int, start, begin, occ uint64) {}

func (l *LLC) sanCheckFill(addr uint64) {}
