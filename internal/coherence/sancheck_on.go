//go:build simcheck

package coherence

import (
	"math/bits"

	"repro/internal/sancheck"
)

// mesiLegal[prev][cur] is the transition matrix this directory can legally
// produce, derived from the protocol methods: I->S is illegal (the first
// reader always takes E), and S->E / M->E are illegal (nothing short of
// full invalidation re-establishes exclusivity). Self-transitions are legal
// no-ops, and I->I covers releases and shootdowns of untracked lines.
var mesiLegal = [4][4]bool{
	Invalid:   {Invalid: true, Shared: false, Exclusive: true, Modified: true},
	Shared:    {Invalid: true, Shared: true, Exclusive: false, Modified: true},
	Exclusive: {Invalid: true, Shared: true, Exclusive: true, Modified: true},
	Modified:  {Invalid: true, Shared: true, Exclusive: false, Modified: true},
}

// sanCheckLine validates the core-bitmask consistency of one tracked line:
// a tracked line has at least one sharer, no sharer outside the configured
// core count, and in E/M exactly one sharer, which is its owner. Methods
// call it on entry (catching corruption left by earlier callers) and again
// through sanCheckTransition on exit, which also checks the line table.
func (d *Directory) sanCheckLine(addr uint64) {
	i, ok := d.lines.find(addr)
	if !ok {
		return
	}
	s := d.lines.slots[i]
	st, sharers := slotState(s), slotSharers(s)
	if sharers == 0 {
		sancheck.Failf("coherence: line %#x tracked in state %s with no sharers", addr, st)
	}
	if limit := uint64(1)<<uint(d.numCores) - 1; sharers&^limit != 0 {
		sancheck.Failf("coherence: line %#x has sharers outside the %d-core system: %s",
			addr, d.numCores, sancheck.Cores(sharers))
	}
	switch st {
	case Exclusive, Modified:
		if sharers&(sharers-1) != 0 {
			sancheck.Failf("coherence: line %#x in state %s must have exactly one sharer, its owner %d, got %s",
				addr, st, slotOwner(s), sancheck.Cores(sharers))
		}
	case Shared:
	default:
		sancheck.Failf("coherence: line %#x tracked with invalid state %s", addr, st)
	}
}

// sanCheckTransition validates the MESI transition a method just performed
// (prev was captured at entry; the current state is re-read here),
// re-validates the line's bitmask consistency, and checks the line table.
func (d *Directory) sanCheckTransition(addr uint64, prev State) {
	cur := Invalid
	if i, ok := d.lines.find(addr); ok {
		cur = slotState(d.lines.slots[i])
	}
	if !mesiLegal[prev][cur] {
		sancheck.Failf("coherence: illegal MESI transition %s -> %s for line %#x", prev, cur, addr)
	}
	d.sanCheckLine(addr)
	d.lines.sanCheck(addr)
}

// sanCheck validates the line table's structure around addr on every
// operation, and all of it once every len(slots) operations, which keeps
// the sanitizer's cost amortised O(1) per operation. Each check requires
// that every key is reachable from its home slot without crossing an empty
// slot, the invariant lookups and backward-shift deletion rely on; the full
// walk also requires that the occupied slots number n and stay within ¾
// load. An operation on addr can only move entries of the cluster (maximal
// run of occupied slots) holding addr's home slot, so that is the cluster
// checked locally.
func (t *lineTable) sanCheck(addr uint64) {
	mask := len(t.slots) - 1
	if len(t.slots) < minSlots || len(t.slots)&mask != 0 || 64-bits.Len(uint(mask)) != int(t.shift) {
		sancheck.Failf("coherence: line table has %d slots with hash shift %d", len(t.slots), t.shift)
	}
	start := t.home(addr)
	for t.slots[start] != 0 && t.slots[(start-1)&mask] != 0 {
		start = (start - 1) & mask
	}
	t.sanCheckCluster(start)
	if t.sanOps++; t.sanOps < len(t.slots) {
		return
	}
	t.sanOps = 0
	empty := 0
	for t.slots[empty] != 0 {
		empty++
	}
	n := 0
	for k := 1; k <= mask; k++ {
		if i := (empty + k) & mask; t.slots[i] != 0 && t.slots[(i-1)&mask] == 0 {
			n += t.sanCheckCluster(i)
		}
	}
	if n != t.n {
		sancheck.Failf("coherence: line table counts %d lines but %d slots are occupied", t.n, n)
	}
	if 4*n > 3*len(t.slots) {
		sancheck.Failf("coherence: line table holds %d lines in %d slots, above 3/4 load", n, len(t.slots))
	}
}

// sanCheckCluster checks that every key of the cluster starting at slot
// start has its home slot inside the cluster at or before the key's slot,
// and returns how many keys the cluster holds.
func (t *lineTable) sanCheckCluster(start int) int {
	mask := len(t.slots) - 1
	n := 0
	for i := start; t.slots[i] != 0; i = (i + 1) & mask {
		n++
		if h := t.home(slotAddr(t.slots[i])); (i-h)&mask > (i-start)&mask {
			sancheck.Failf("coherence: line %#x in slot %d is unreachable from its home slot %d: the probe chain breaks at empty slot %d",
				slotAddr(t.slots[i]), i, h, (start-1)&mask)
		}
	}
	return n
}
