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
// would be truncated into the 32-bit field and alias another line. Every
// probe, fill and invalidation passes here, so every tag a frame stores is
// in range.
func (c *Cache) sanCheckTag(addr, lineTag uint64) {
	if lineTag >= 1<<MaxTagBits {
		sancheck.Failf("cache %s: address %#x has line tag %#x, wider than the %d bits a frame stores (tag would alias)",
			c.cfg.Name, addr, lineTag, MaxTagBits)
	}
}

// sanCheckSet validates the structural invariants of one set: an empty way
// carries meta 0 (Invalidate must fully scrub the frame, leaving no stale
// dirty bit or stamp), a valid way stores a line tag below 2^MaxTagBits
// and a stamp in 1..tick, and no two valid ways in a set hold the same tag.
func (c *Cache) sanCheckSet(setBase uint64) {
	ways := c.sets[setBase : setBase+c.ways]
	set := setBase / c.ways
	for i := range ways {
		w := ways[i]
		if !w.valid() {
			if w.meta != 0 {
				sancheck.Failf("cache %s: set %d way %d is empty but carries meta %#x (frame not scrubbed)",
					c.cfg.Name, set, i, w.meta)
			}
			continue
		}
		if w.tag-1 >= 1<<MaxTagBits {
			sancheck.Failf("cache %s: set %d way %d stores line tag %#x, wider than the %d bits a frame holds",
				c.cfg.Name, set, i, w.tag-1, MaxTagBits)
		}
		if w.lru() == 0 || w.lru() > c.tick {
			sancheck.Failf("cache %s: set %d way %d LRU stamp %d is outside the cache clock's 1..%d",
				c.cfg.Name, set, i, w.lru(), c.tick)
		}
		for j := i + 1; j < len(ways); j++ {
			if ways[j].valid() && ways[j].tag == w.tag {
				sancheck.Failf("cache %s: tag %#x duplicated in set %d (ways %d and %d)",
					c.cfg.Name, w.tag, set, i, j)
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
