//go:build !simcheck

package sim

import "repro/internal/cache"

// Without the simcheck build tag the fill-path assertion is an empty no-op
// the compiler erases; sancheck_on.go holds the armed version.
func sanCheckAbsent(c *cache.Cache, core int, pa uint64) {}
