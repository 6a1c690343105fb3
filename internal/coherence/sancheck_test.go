//go:build simcheck

package coherence

import (
	"strings"
	"testing"
)

// TestSanitizerCatchesCorruptedSharers plants a torn sharer bitmask — an
// Exclusive line that claims two holders — and asserts the armed sanitizer
// kills the next directory operation with a diagnostic naming the line
// address and the offending cores. This is the failure mode the PR-3
// wrong-owner paddr bug would have produced had it reached the directory.
func TestSanitizerCatchesCorruptedSharers(t *testing.T) {
	d := MustNewDirectory(8)
	const addr = 0x1000
	d.ReadAcquire(addr, 1) // line tracked E, owner 1

	i, _ := d.lines.find(addr)
	d.lines.slots[i].sharers |= 1 << 3 // corruption: phantom sharer on core 3

	defer wantSanPanic(t, "sancheck:", "0x1000", "cores [1 3]", "owner 1", "state E")
	d.WriteAcquire(addr, 1) // entry check must fire before the write repairs the mask
}

// wantSanPanic, deferred, requires the sanitizer to have panicked with a
// diagnostic mentioning every want.
func wantSanPanic(t *testing.T, want ...string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatal("sanitizer did not panic")
	}
	msg, ok := r.(string)
	if !ok {
		t.Fatalf("sanitizer panicked with %T, want string", r)
	}
	for _, w := range want {
		if !strings.Contains(msg, w) {
			t.Errorf("diagnostic %q does not mention %q", msg, w)
		}
	}
}

// TestSanitizerCatchesUnreachableLine moves a tracked line from its home
// slot to the slot before it, where no probe for it ever looks, and asserts
// the next operation on the line kills the run: the operation misses,
// re-inserts the line at home, and the check of the home slot's cluster
// finds the stranded copy.
func TestSanitizerCatchesUnreachableLine(t *testing.T) {
	d := MustNewDirectory(8)
	const addr = 0x3000
	d.ReadAcquire(addr, 2)
	i, _ := d.lines.find(addr)
	before := (i - 1) & (len(d.lines.slots) - 1) // empty in a table this sparse
	d.lines.slots[before], d.lines.slots[i] = d.lines.slots[i], slot{}

	defer wantSanPanic(t, "sancheck:", "line 0x3000", "unreachable")
	d.ReadAcquire(addr, 3)
}

// TestSanitizerCatchesMiscountedTable drops the table's line count by one
// and asserts the periodic full walk catches it within len(slots)
// operations.
func TestSanitizerCatchesMiscountedTable(t *testing.T) {
	d := MustNewDirectory(8)
	d.ReadAcquire(0x40, 0)
	d.lines.n--

	defer wantSanPanic(t, "sancheck:", "counts 1 lines but 2 slots are occupied")
	for k := 0; k < minSlots; k++ {
		d.ReadAcquire(0x80, 0)
		d.Shootdown(0x80)
	}
}

// TestSanitizerAcceptsLegalTraffic drives the full legal MESI walk
// (I->E->S->M->I, untracked no-ops, shootdown) with the sanitizer armed;
// any false positive in the transition matrix fails here.
func TestSanitizerAcceptsLegalTraffic(t *testing.T) {
	d := MustNewDirectory(4)
	const addr = 0x2000
	d.ReadAcquire(addr, 0)    // I -> E
	d.ReadAcquire(addr, 1)    // E -> S (downgrade)
	d.WriteAcquire(addr, 1)   // S -> M (upgrade, invalidates core 0)
	d.Release(addr, 1, true)  // M -> I
	d.Release(addr, 1, false) // I -> I (untracked release is a no-op)
	d.WriteAcquire(addr, 2)   // I -> M
	if _, dirty := d.Shootdown(addr); !dirty {
		t.Fatal("shootdown of an M line must report dirty")
	}
}
