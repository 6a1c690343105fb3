//go:build simcheck

package nuca

import "repro/internal/sancheck"

// sanState shadows the bank-queue accounting the armed sanitizer maintains
// alongside bankFree: tail is an independently-computed FIFO tail per
// bank, charged the total occupancy cycles each bank was reserved for,
// idle the observed gaps between reservations. The conservation identity
// charged + idle == bankFree must hold after every service under the
// queue model. Slices are allocated on first use so a zero LLC (and the
// legacy model, which only needs the window bound) stays cheap.
type sanState struct {
	tail    []uint64
	charged []uint64
	idle    []uint64
}

// sanCheckBankService validates one bank service after BankService updated
// the bank's next-free time.
//
// Always: the request cannot begin before it arrived. Legacy model: a
// request may wait at most BankContentionWindow cycles (anything longer
// must have slipped instead), and the charged occupancy must be reflected
// in the bank's next-free time. Queue model: reservations are FIFO per
// bank (begin never precedes the shadow tail) and occupancy is conserved —
// the cycles charged plus the idle gaps exactly reproduce bankFree, so no
// request is served without occupying the array.
func (l *LLC) sanCheckBankService(bank int, start, begin, occ uint64) {
	if begin < start {
		sancheck.Failf("nuca: bank %d service began at %d, before the request arrived at %d",
			bank, begin, start)
	}
	if !l.queue {
		if begin != start && begin-start > l.window {
			sancheck.Failf("nuca: bank %d request waited %d cycles, beyond the %d-cycle contention window",
				bank, begin-start, l.window)
		}
		if l.bankFree[bank] < begin+occ {
			sancheck.Failf("nuca: bank %d next-free %d does not cover the service [%d,%d) just charged",
				bank, l.bankFree[bank], begin, begin+occ)
		}
		return
	}
	s := &l.san
	if s.tail == nil {
		n := len(l.bankFree)
		s.tail = make([]uint64, n)
		s.charged = make([]uint64, n)
		s.idle = make([]uint64, n)
	}
	if begin < s.tail[bank] {
		sancheck.Failf("nuca: bank %d FIFO order broken: service begins at %d inside the reservation ending %d",
			bank, begin, s.tail[bank])
	}
	s.idle[bank] += begin - s.tail[bank]
	s.charged[bank] += occ
	s.tail[bank] = begin + occ
	if s.charged[bank]+s.idle[bank] != l.bankFree[bank] {
		sancheck.Failf("nuca: bank %d occupancy conservation broken: charged %d + idle %d != next-free %d",
			bank, s.charged[bank], s.idle[bank], l.bankFree[bank])
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
