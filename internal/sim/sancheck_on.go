//go:build simcheck

package sim

import (
	"repro/internal/cache"
	"repro/internal/sancheck"
)

// sanCheckFill asserts the two facts a fill of pa's line into core's
// private cache c relies on: c does not hold the line yet (a fill of a
// present line would put it in two ways of one set), and the line lies in
// core's own address window, so coreOf names the only cache that can hold
// it.
func sanCheckFill(s *System, c *cache.Cache, core int, pa uint64) {
	if c.Peek(pa) {
		sancheck.Failf("sim: core %d fills line %#x into %s, which already holds it",
			core, pa, c.Config().Name)
	}
	if owner := s.coreOf(pa); owner != core {
		sancheck.Failf("sim: core %d fills line %#x of core %d's address window into %s",
			core, pa, owner, c.Config().Name)
	}
}

// sanCheckSoleOwner asserts that no core but owner holds line in its L1 or
// L2 when the LLC evicts it, which is what lets the inclusive shootdown
// visit the owner's caches alone.
func sanCheckSoleOwner(s *System, owner int, line uint64) {
	var others uint64
	for c := range s.l1 {
		if c != owner && (s.l1[c].Peek(line) || s.l2[c].Peek(line)) {
			others |= 1 << uint(c)
		}
	}
	if others != 0 {
		sancheck.Failf("sim: LLC evicts core %d's line %#x while %s also hold it",
			owner, line, sancheck.Cores(others))
	}
}
