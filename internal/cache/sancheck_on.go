//go:build simcheck

package cache

import "repro/internal/sancheck"

// sanState carries the occupancy-conservation counters the armed sanitizer
// maintains alongside the real line array: live tracks fills minus
// evictions minus invalidations and must always equal the structural
// occupancy; events paces the full-array cross-check.
type sanState struct {
	live   uint64
	events uint64
}

// sanSweepInterval is how many mutation events pass between full
// Occupancy() cross-checks; per-event checks stay O(ways).
const sanSweepInterval = 4096

// sanCheckTag validates that addr's line tag fits a frame: a wider tag
// would be truncated into the frame's tag field and alias another line.
// Every probe, fill and invalidation passes here, so every tag a frame
// stores is in range.
func (c *Cache) sanCheckTag(addr, lineTag uint64) {
	if bits := c.tagBits(); lineTag >= 1<<bits {
		sancheck.Failf("cache %s: address %#x has line tag %#x, wider than the %d bits a %d-way frame stores (tag would alias)",
			c.cfg.Name, addr, lineTag, bits, c.ways)
	}
}

// tagBits is the widest line tag a frame of c stores.
func (c *Cache) tagBits() uint { return MaxTagBits + 1 - c.tagShift }

// sanCheckSet validates the structural invariants of one set: an empty way
// is the word 0 (Invalidate must fully scrub the frame, leaving no stale
// dirty bit or rank), a valid way stores a line tag below 2^tagBits, no
// two valid ways in a set hold the same tag, and the ranks of the set's k
// valid ways are a permutation of 0..k-1 (a duplicated rank would make
// two lines equally recent, a rank at or above k would leave a gap).
func (c *Cache) sanCheckSet(setBase uint64) {
	set := c.frames[setBase : setBase+c.ways]
	index := setBase / c.ways
	var k uint32
	for _, w := range set {
		if w != 0 {
			k++
		}
	}
	var seen [maxWays / 64]uint64
	for i, w := range set {
		if w == 0 {
			continue
		}
		tag := w >> c.tagShift
		if tag == 0 {
			sancheck.Failf("cache %s: set %d way %d is empty but carries word %#x (frame not scrubbed)",
				c.cfg.Name, index, i, w)
		}
		if bits := c.tagBits(); tag-1 >= 1<<bits {
			sancheck.Failf("cache %s: set %d way %d stores line tag %#x, wider than the %d bits a %d-way frame holds",
				c.cfg.Name, index, i, tag-1, bits, c.ways)
		}
		r := w & c.rankMask
		if r >= k {
			sancheck.Failf("cache %s: set %d way %d has recency rank %d, outside the 0..%d its %d valid ways hold",
				c.cfg.Name, index, i, r, k-1, k)
		}
		if seen[r/64]&(1<<(r%64)) != 0 {
			sancheck.Failf("cache %s: recency rank %d duplicated in set %d (way %d)",
				c.cfg.Name, r, index, i)
		}
		seen[r/64] |= 1 << (r % 64)
		for j := i + 1; j < len(set); j++ {
			if set[j]>>c.tagShift == tag {
				sancheck.Failf("cache %s: tag %#x duplicated in set %d (ways %d and %d)",
					c.cfg.Name, tag, index, i, j)
			}
		}
	}
}

// sanAccount applies one occupancy delta and verifies conservation: the
// running fills-evictions-invalidations balance can never exceed capacity
// or go negative (a negative balance wraps and trips the capacity bound),
// dirty evictions can never outnumber evictions, and every
// sanSweepInterval events the balance is cross-checked against the
// structural Occupancy().
func (c *Cache) sanAccount(delta int64) {
	c.san.live += uint64(delta)
	if c.san.live > c.Lines() {
		sancheck.Failf("cache %s: occupancy conservation broken: %d live lines tracked against capacity %d",
			c.cfg.Name, int64(c.san.live), c.Lines())
	}
	if c.stats.DirtyEvicts > c.stats.Evictions {
		sancheck.Failf("cache %s: %d dirty evictions exceed %d total evictions",
			c.cfg.Name, c.stats.DirtyEvicts, c.stats.Evictions)
	}
	c.san.events++
	if c.san.events%sanSweepInterval == 0 {
		if occ := c.Occupancy(); occ != c.san.live {
			sancheck.Failf("cache %s: structural occupancy %d does not match conservation count %d",
				c.cfg.Name, occ, c.san.live)
		}
	}
}

func (c *Cache) sanCheckTouch(setBase uint64) {
	c.sanCheckSet(setBase)
}

func (c *Cache) sanCheckFill(setBase uint64, evicted bool) {
	c.sanCheckSet(setBase)
	if evicted {
		c.sanAccount(0) // one in, one out
	} else {
		c.sanAccount(1)
	}
}

func (c *Cache) sanCheckInvalidate(setBase uint64, removed bool) {
	c.sanCheckSet(setBase)
	if removed {
		c.sanAccount(-1)
	} else {
		c.sanAccount(0)
	}
}
