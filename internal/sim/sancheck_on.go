//go:build simcheck

package sim

import (
	"repro/internal/cache"
	"repro/internal/sancheck"
)

// sanCheckAbsent asserts that core's private cache c does not hold pa's
// line when it is about to be filled: a fill of a present line would put
// it in two ways of one set.
func sanCheckAbsent(c *cache.Cache, core int, pa uint64) {
	if c.Peek(pa) {
		sancheck.Failf("sim: core %d fills line %#x into %s, which already holds it",
			core, pa, c.Config().Name)
	}
}

// sanCheckUncharged asserts that core's directory acquire of line took
// none of the paths System.acquire does not charge: a downgrade of remote
// copies or the write-back of a dirty one.
func sanCheckUncharged(line uint64, core int, downgraded uint64, dirtyWB bool) {
	if downgraded != 0 || dirtyWB {
		sancheck.Failf("sim: core %d acquires line %#x with downgrades %#x and dirty write-back %v, which the walk does not charge",
			core, line, downgraded, dirtyWB)
	}
}
