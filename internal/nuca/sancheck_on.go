//go:build simcheck

package nuca

import "repro/internal/sancheck"

// sanCheckBankService validates one bank service after BankService updated
// the bank's next-free time: the request cannot begin before it arrived,
// it may wait at most BankContentionWindow cycles (anything longer must
// have slipped instead), and the charged occupancy must be reflected in
// the bank's next-free time.
func (l *LLC) sanCheckBankService(bank int, start, begin, occ uint64) {
	if begin < start {
		sancheck.Failf("nuca: bank %d service began at %d, before the request arrived at %d",
			bank, begin, start)
	}
	if begin-start > BankContentionWindow {
		sancheck.Failf("nuca: bank %d request waited %d cycles, beyond the %d-cycle contention window",
			bank, begin-start, BankContentionWindow)
	}
	if l.bankFree[bank] < begin+occ {
		sancheck.Failf("nuca: bank %d next-free %d does not cover the service [%d,%d) just charged",
			bank, l.bankFree[bank], begin, begin+occ)
	}
}

// sanCheckFill validates a fill before it installs addr: the line must be
// resident in no bank. Every policy keeps at most one copy of a line —
// Naive's oracle and Re-NUCA's two-probe lookup both rely on it — and
// Fill's contract is that the caller has established the line is absent.
func (l *LLC) sanCheckFill(addr uint64) {
	if bank, ok := l.Contains(addr); ok {
		sancheck.Failf("nuca: fill of line %#x, already resident in bank %d (a second copy)",
			addr&^(l.cfg.LineBytes-1), bank)
	}
}
