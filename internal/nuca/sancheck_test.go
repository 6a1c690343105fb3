//go:build simcheck

package nuca

import (
	"strconv"
	"strings"
	"testing"
)

// expectSancheckPanic runs f and asserts the armed sanitizer panicked with
// a message containing every fragment.
func expectSancheckPanic(t *testing.T, frags []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the corruption")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, frag := range frags {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic %q does not name %q", msg, frag)
			}
		}
	}()
	f()
}

// TestSanitizerCatchesBankFreeCorruption rewinds a bank's next-free time
// behind the sanitizer's shadow FIFO tail — the "request served without
// occupying the array" state the queue model exists to forbid — and
// asserts the FIFO-order check fires on the next service.
func TestSanitizerCatchesBankFreeCorruption(t *testing.T) {
	l := queueLLC(SNUCA)
	l.BankService(0, 0, 0, true)
	l.BankService(0, 64, 0, true)
	l.bankFree[0] /= 2 // corrupt: erase half the charged occupancy
	expectSancheckPanic(t, []string{"sancheck:", "bank 0", "FIFO order broken"}, func() {
		l.BankService(0, 128, 0, false)
	})
}

// TestSanitizerCatchesOccupancyLoss breaks the conservation ledger — a
// service charged to the shadow accounting that never advanced the bank —
// and asserts the charged+idle==next-free cross-check fires.
func TestSanitizerCatchesOccupancyLoss(t *testing.T) {
	l := queueLLC(SNUCA)
	l.BankService(0, 0, 0, true)
	l.san.charged[0] += 5 // corrupt: phantom charged occupancy
	expectSancheckPanic(t, []string{"sancheck:", "bank 0", "conservation"}, func() {
		l.BankService(0, 64, 0, false)
	})
}

// TestSanitizerCatchesLegacyOverWait exercises the legacy window bound.
// BankService itself can never produce an over-window wait (the slip
// branch enforces it in the same expression the hook re-checks), so the
// check guards future edits to that branch; it is driven directly here.
func TestSanitizerCatchesLegacyOverWait(t *testing.T) {
	l := smallLLC(SNUCA)
	l.bankFree[1] = 600
	expectSancheckPanic(t, []string{"sancheck:", "bank 1", "contention window"}, func() {
		// A 140-cycle wait against the 64-cycle default window.
		l.sanCheckBankService(1, 460, 600, 4)
	})
}

// TestSanitizerAcceptsLegalQueueTraffic drives both models through mixed
// read/write traffic with the sanitizer armed; no invariant may fire.
func TestSanitizerAcceptsLegalQueueTraffic(t *testing.T) {
	for _, l := range []*LLC{queueLLC(SNUCA), smallLLC(SNUCA)} {
		for i := uint64(0); i < 200; i++ {
			l.BankService(int(i%4), i*64, i*3, i%5 == 0)
		}
	}
}

// TestSanitizerCatchesDoubleFill fills a resident line a second time —
// the caller skipped the Access that would have found it — under every
// policy, and asserts the one-copy check fires before a second copy lands
// (for Naive, in whichever bank is now least written).
func TestSanitizerCatchesDoubleFill(t *testing.T) {
	for _, p := range Policies() {
		l := smallLLC(p)
		fr := l.Fill(0x7040, 1, true, false)
		expectSancheckPanic(t, []string{"sancheck:", "line 0x7040", "already resident", "bank " + strconv.Itoa(fr.Bank)}, func() {
			l.Fill(0x7040, 1, true, false)
		})
	}
}
