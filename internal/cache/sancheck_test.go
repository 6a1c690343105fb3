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
	c.Fill(0, false)    // set 0, tag 0
	c.Fill(4*64, false) // set 0, tag 1
	// Corrupt: way 1 takes way 0's tag and keeps its own rank.
	c.frames[1] = c.frames[0]&^c.low() | c.frames[1]&c.low()
	expectSanPanic(t, "the duplicated tag", func() { c.Lookup(0, false) },
		"L1-test", "duplicated in set 0")
}

// TestSanitizerCatchesUnscrubbedEmptyFrame leaves a stale dirty bit and
// rank in an empty frame's word — what an Invalidate that cleared only the
// tag field would leave — and asserts the next touch of the set panics.
func TestSanitizerCatchesUnscrubbedEmptyFrame(t *testing.T) {
	c := MustNew(Config{Name: "L2-test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	c.Fill(0, true)
	c.Invalidate(0)
	c.frames[0] = 1 | c.dirtyBit // corrupt: no tag, but a rank and the dirty bit
	expectSanPanic(t, "the unscrubbed empty frame", func() { c.Lookup(0, false) },
		"L2-test", "set 0 way 0 is empty but carries word 0x3")
}

// TestSanitizerCatchesOutOfRangeTag probes with an address whose line tag
// is wider than a frame stores. Unarmed, the tag would be truncated and
// alias a different line; armed, the probe panics before touching a frame.
func TestSanitizerCatchesOutOfRangeTag(t *testing.T) {
	c := MustNew(Config{Name: "LLC-test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64})
	// 4 sets x 64B lines: bits 0-7 are offset and set, and a 2-way frame
	// stores 29 tag bits, so bit 37 is one past the tag field.
	addr := uint64(1) << (8 + MaxTagBits - 1)
	expectSanPanic(t, "the out-of-range tag", func() { c.Fill(addr, false) },
		"LLC-test", "wider than the 29 bits a 2-way frame stores")
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
	// Corrupt: store line tag 2^29, one past a 2-way frame's 29 bits.
	c.frames[0] = (1<<29+1)<<c.tagShift | c.frames[0]&c.low()
	expectSanPanic(t, "the out-of-range stored tag", func() { c.Lookup(4*64, false) },
		"L1-test", "set 0 way 0 stores line tag 0x20000000")
}

// TestSanitizerCatchesBrokenRankPermutation corrupts the recency ranks of
// two lines in a 4-way set so they stop being a permutation of 0..1: first
// a duplicated rank (two lines equally recent, so eviction has no unique
// victim), then a rank at or above the set's valid count that the 2-bit
// rank field can still hold. The next touch of the set must panic in both
// cases.
func TestSanitizerCatchesBrokenRankPermutation(t *testing.T) {
	for _, tc := range []struct {
		what string
		rank uint32
		want string
	}{
		{"the duplicated rank", 0, "recency rank 0 duplicated in set 0"},
		{"the out-of-range rank", 2, "set 0 way 1 has recency rank 2"},
	} {
		c := MustNew(Config{Name: "LLC-test", SizeBytes: 16 * 64, Ways: 4, LineBytes: 64})
		c.Fill(0, false)    // set 0 way 0, rank 0
		c.Fill(4*64, false) // set 0 way 1, rank 1
		c.frames[1] = c.frames[1]&^c.rankMask | tc.rank
		expectSanPanic(t, tc.what, func() { c.Lookup(0, false) }, "LLC-test", tc.want)
	}
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
