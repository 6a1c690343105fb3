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

// TestSanitizerCatchesOverWindowWait exercises the window bound.
// BankService itself can never produce an over-window wait (the slip
// branch enforces it in the same expression the hook re-checks), so the
// check guards future edits to that branch; it is driven directly here.
func TestSanitizerCatchesOverWindowWait(t *testing.T) {
	l := smallLLC(SNUCA)
	l.bankFree[1] = 600
	expectSancheckPanic(t, []string{"sancheck:", "bank 1", "contention window"}, func() {
		// A 140-cycle wait against the 64-cycle window.
		l.sanCheckBankService(1, 460, 600, 4)
	})
}

// TestSanitizerAcceptsLegalQueueTraffic drives mixed read/write traffic,
// with and without slow writes, with the sanitizer armed; no invariant may
// fire.
func TestSanitizerAcceptsLegalQueueTraffic(t *testing.T) {
	for _, l := range []*LLC{contendedLLC(SNUCA), smallLLC(SNUCA)} {
		for i := uint64(0); i < 200; i++ {
			l.BankService(int(i%4), i*3, i%5 == 0)
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
