// Package coherence keeps each core's private L1 and L2 inclusive in the
// shared LLC without a directory. Every core's physical addresses lie in
// their own window (the core ID sits above the per-core window), so the
// address names the only core whose private caches can hold a line. When
// the LLC evicts a line, Shootdown invalidates that core's L1 and L2 copies
// and reports whether either was dirty; no per-line sharer state exists.
package coherence

import "repro/internal/cache"

// Stats counts the inclusive LLC's back-invalidations: LLC evictions of a
// line its owner's L2 held. A line has one possible holder, so the two
// counters are equal.
type Stats struct {
	Shootdowns    uint64 // LLC evictions that found the line in its owner's L2
	Invalidations uint64 // private-cache copies those evictions invalidated
}

// Stats returns the counters, so callers of System.Directory().Stats()
// read them through the same call as before the MESI directory went away.
func (st Stats) Stats() Stats { return st }

// Shootdown removes line from its owner's private caches l1 and l2 and
// reports whether either copy was dirty, in which case the evicted data
// must reach DRAM. It counts a back-invalidation when l2 held the line:
// L1 is a subset of L2, and invalidating an absent line changes nothing,
// not even a cache counter.
//
//lint:hotpath
func (st *Stats) Shootdown(l1, l2 *cache.Cache, line uint64) (dirty bool) {
	_, dirty = l1.Invalidate(line)
	if held, d := l2.Invalidate(line); held {
		st.Shootdowns++
		st.Invalidations++
		dirty = dirty || d
	}
	return dirty
}
