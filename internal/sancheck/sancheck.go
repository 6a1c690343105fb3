// Package sancheck anchors the simulator's runtime architectural-invariant
// sanitizer. Building with `-tags simcheck` arms per-package sanCheck*
// hooks (address ownership of every private-cache line in sim, per-set
// occupancy and conservation in cache, flit conservation and latency
// bounds in noc, bank state-machine legality in dram, wear monotonicity
// and endurance bounds in rram); without the tag
// the hooks are empty no-ops the compiler erases, which the zero-alloc
// benchmarks verify. The invariantcall analyzer guarantees every exported
// state-mutating method in those packages calls its hook, so coverage
// cannot silently rot.
//
// A failed check panics through Failf rather than returning an error: an
// invariant violation means simulator state is already corrupt and any
// result derived from it is meaningless, so the run must die loudly at the
// first bad transition — the gem5 assertion discipline.
package sancheck

import (
	"fmt"
	"math/bits"
	"strings"
)

// Failf panics with a sancheck-prefixed diagnostic. Hooks call it only
// after a check has failed, so its allocations never touch the zero-alloc
// hot-path budget.
func Failf(format string, args ...any) {
	panic("sancheck: " + fmt.Sprintf(format, args...))
}

// Cores renders a core bitmask as a core list ("cores [1 3]") for
// diagnostics.
func Cores(mask uint64) string {
	var sb strings.Builder
	sb.WriteString("cores [")
	first := true
	for m := mask; m != 0; m &= m - 1 {
		if !first {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", bits.TrailingZeros64(m))
		first = false
	}
	sb.WriteString("]")
	return sb.String()
}
