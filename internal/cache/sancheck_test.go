//go:build simcheck

package cache

import (
	"strings"
	"testing"
)

// expectSanPanic runs op and asserts the armed sanitizer panics with a
// message naming every fragment in want.
func expectSanPanic(t *testing.T, what string, op func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("sanitizer did not catch %s", what)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, frag := range append([]string{"sancheck:"}, want...) {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic %q does not name %q", msg, frag)
			}
		}
	}()
	op()
}

// TestSanitizerCatchesDuplicateTag corrupts a set so two valid ways carry
// the same tag — the "line in two places" state the probe loop can never
// produce itself — and asserts the armed sanitizer panics on the next
// touch, naming the cache, tag, and set.
func TestSanitizerCatchesDuplicateTag(t *testing.T) {
	c := MustNew(Config{Name: "L1-test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	c.Fill(0, false)              // set 0, tag 0
	c.Fill(4*64, false)           // set 0, tag 1
	c.sets[1].tag = c.sets[0].tag // corrupt: duplicate tag in set 0
	expectSanPanic(t, "the duplicated tag", func() { c.Lookup(0, false) },
		"L1-test", "duplicated in set 0")
}

// TestSanitizerCatchesUnscrubbedEmptyFrame leaves a stale dirty bit and
// stamp in an empty frame — what an Invalidate that cleared only the tag
// would leave — and asserts the next touch of the set panics.
func TestSanitizerCatchesUnscrubbedEmptyFrame(t *testing.T) {
	c := MustNew(Config{Name: "L2-test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	c.Fill(0, true)
	c.Invalidate(0)
	c.sets[0].meta = 5<<lruShift | wayDirty // corrupt: empty frame with meta
	expectSanPanic(t, "the unscrubbed empty frame", func() { c.Lookup(0, false) },
		"L2-test", "set 0 way 0 is empty but carries meta")
}

// TestSanitizerCatchesOutOfRangeTag probes with an address whose line tag
// is wider than a frame stores. Unarmed, the tag would be truncated and
// alias a different line; armed, the probe panics before touching a frame.
func TestSanitizerCatchesOutOfRangeTag(t *testing.T) {
	c := MustNew(Config{Name: "LLC-test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	// 4 sets x 64B lines: bits 0-7 are offset and set, so bit 39 is tag
	// bit 31 — one past MaxTagBits.
	addr := uint64(1) << (8 + MaxTagBits)
	expectSanPanic(t, "the out-of-range tag", func() { c.Fill(addr, false) },
		"LLC-test", "wider than the 31 bits")
	if c.Occupancy() != 0 {
		t.Error("out-of-range fill reached a frame before the sanitizer fired")
	}
}

// TestSanitizerCatchesOutOfRangeStoredTag corrupts a valid frame's stored
// tag past the range a probe can produce and asserts the next touch of the
// set panics.
func TestSanitizerCatchesOutOfRangeStoredTag(t *testing.T) {
	c := MustNew(Config{Name: "L1-test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	c.Fill(0, false)
	c.sets[0].tag = 1<<MaxTagBits + 1 // corrupt: stores line tag 2^31
	expectSanPanic(t, "the out-of-range stored tag", func() { c.Lookup(4*64, false) },
		"L1-test", "set 0 way 0 stores line tag 0x80000000")
}

// TestSanitizerAcceptsLegalTraffic walks fill/hit/evict/invalidate through
// a tiny cache with the sanitizer armed; no invariant may fire.
func TestSanitizerAcceptsLegalTraffic(t *testing.T) {
	c := MustNew(Config{Name: "ok", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	for i := uint64(0); i < 16; i++ { // wraps the 4-set cache twice: fills + evictions
		c.Fill(i*64, i%3 == 0)
	}
	c.Lookup(15*64, true)
	c.Invalidate(15 * 64)
	c.Invalidate(0) // long evicted: miss path
}
