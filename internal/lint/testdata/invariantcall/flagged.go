//lint:as fixture/internal/dram

// Package fixture is the invariantcall analyzer's corpus, loaded under an
// invariant-bearing import path: exported state-mutating methods must call
// a sanCheck* hook.
package fixture

type Dir struct {
	lines map[uint64]uint64
	banks []uint64
	count int
}

// Acquire mutates directly through the receiver and has no hook.
func (d *Dir) Acquire(addr uint64) { // want `state-mutating method Acquire`
	d.lines[addr] = 1
	d.count++
}

// Trim mutates through a receiver-derived local (m aliases d.lines).
func (d *Dir) Trim(addr uint64) { // want `state-mutating method Trim`
	m := d.lines
	delete(m, addr)
}

// Charge mutates through an element pointer derived from the receiver.
func (d *Dir) Charge(bank int) { // want `state-mutating method Charge`
	b := &d.banks[bank]
	*b++
}

// Window mutates through a receiver-rooted subslice.
func (d *Dir) Window(lo, hi int) { // want `state-mutating method Window`
	w := d.banks[lo:hi]
	w[0] = 0
}
