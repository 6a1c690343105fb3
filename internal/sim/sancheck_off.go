//go:build !simcheck

package sim

import "repro/internal/cache"

// Without the simcheck build tag the fill- and acquire-path assertions are
// empty no-ops the compiler erases; sancheck_on.go holds the armed
// versions.
func sanCheckAbsent(c *cache.Cache, core int, pa uint64) {}

func sanCheckUncharged(line uint64, core int, downgraded uint64, dirtyWB bool) {}
