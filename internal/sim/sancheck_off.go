//go:build !simcheck

package sim

import "repro/internal/cache"

// Without the simcheck build tag the fill- and eviction-path assertions
// are empty no-ops the compiler erases; sancheck_on.go holds the armed
// versions.
func sanCheckFill(s *System, c *cache.Cache, core int, pa uint64) {}

func sanCheckSoleOwner(s *System, owner int, line uint64) {}
