// Package coherence implements the MESI directory protocol Table I lists
// for the shared LLC. The directory sits logically alongside the LLC and
// tracks, for every LLC-resident line, which private L2 caches hold copies
// and in which state. The evaluated workloads are multi-programmed (no data
// sharing between cores — each core's address space is disjoint), so the
// protocol's sharing transitions are exercised by unit tests and by the
// inclusive-eviction shootdown path: when the LLC evicts a line, the
// directory back-invalidates the upper-level copies, and a dirty private
// copy must be written back.
//
// The acquire/shootdown results report affected cores as bitmasks rather
// than slices: the directory sits on the simulator's per-operation hot
// path, and returning a mask keeps it allocation-free. Iterate with
// bits.TrailingZeros64 (ascending core order).
package coherence

import (
	"fmt"
	"math/bits"
)

// State is a MESI line state as seen by the directory for one line.
type State uint8

const (
	// Invalid: no private cache holds the line.
	Invalid State = iota
	// Shared: one or more private caches hold read-only copies.
	Shared
	// Exclusive: exactly one private cache holds a clean exclusive copy.
	Exclusive
	// Modified: exactly one private cache holds a dirty copy.
	Modified
)

// String returns the MESI letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Stats counts protocol events.
type Stats struct {
	ReadMisses      uint64 // GetS requests reaching the directory
	WriteMisses     uint64 // GetM requests reaching the directory
	Invalidations   uint64 // copies invalidated by upgrades or shootdowns
	Downgrades      uint64 // M/E copies downgraded to S by remote reads
	DirtyWritebacks uint64 // dirty data pushed down by invalidation/downgrade
	Shootdowns      uint64 // inclusive back-invalidations from LLC evictions
}

// Directory is the MESI directory. It supports up to 64 cores (bitmask
// sharers) and line addresses below 2^62. Not safe for concurrent use.
type Directory struct {
	numCores int
	lines    lineTable // line address -> state and sharers
	stats    Stats
}

// NewDirectory builds a directory for numCores private caches.
func NewDirectory(numCores int) (*Directory, error) {
	if numCores <= 0 || numCores > 64 {
		return nil, fmt.Errorf("coherence: core count %d out of [1,64]", numCores)
	}
	return &Directory{numCores: numCores, lines: newLineTable()}, nil
}

// MustNewDirectory is NewDirectory that panics on error.
func MustNewDirectory(numCores int) *Directory {
	d, err := NewDirectory(numCores)
	if err != nil {
		panic(err)
	}
	return d
}

// Stats returns a copy of the counters.
func (d *Directory) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *Directory) ResetStats() { d.stats = Stats{} }

// StateOf returns the directory state for a line (Invalid when untracked).
func (d *Directory) StateOf(addr uint64) State {
	if i, ok := d.lines.find(addr); ok {
		return d.lines.slots[i].state()
	}
	return Invalid
}

// Sharers returns the cores holding a copy of addr.
func (d *Directory) Sharers(addr uint64) []int {
	i, ok := d.lines.find(addr)
	if !ok {
		return nil
	}
	sharers := d.lines.slots[i].sharers
	var out []int
	for c := 0; c < d.numCores; c++ {
		if sharers&(1<<uint(c)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// ReadAcquire handles core's read (GetS) for addr after it missed the
// private caches. It returns the bitmask of cores whose copies were
// downgraded (the simulator charges their snoop latency) and whether a
// dirty copy had to be written back to the LLC first.
//
//lint:hotpath
func (d *Directory) ReadAcquire(addr uint64, core int) (downgraded uint64, dirtyWB bool) {
	d.checkCore(core)
	d.sanCheckLine(addr)
	d.stats.ReadMisses++
	i, ok := d.lines.find(addr)
	if !ok {
		// First reader gets Exclusive (the E optimisation of MESI).
		d.lines.insert(i, addr, Exclusive, 1<<uint(core))
		d.sanCheckTransition(addr, Invalid)
		return 0, false
	}
	ls := &d.lines.slots[i]
	prev := ls.state()
	switch prev {
	case Modified:
		dirtyWB = true
		d.stats.DirtyWritebacks++
		fallthrough
	case Exclusive:
		if owner := ls.owner(); owner != core {
			downgraded = 1 << uint(owner)
			d.stats.Downgrades++
		}
	}
	// A tracked line is never Invalid, so every outcome is Shared.
	*ls = slot{key: addr | uint64(Shared)<<stateShift, sharers: ls.sharers | 1<<uint(core)}
	d.sanCheckTransition(addr, prev)
	return downgraded, dirtyWB
}

// WriteAcquire handles core's write (GetM) for addr. It returns the bitmask
// of cores whose copies were invalidated and whether a remote dirty copy
// was written back.
//
//lint:hotpath
func (d *Directory) WriteAcquire(addr uint64, core int) (invalidated uint64, dirtyWB bool) {
	d.checkCore(core)
	d.sanCheckLine(addr)
	d.stats.WriteMisses++
	i, ok := d.lines.find(addr)
	if !ok {
		d.lines.insert(i, addr, Modified, 1<<uint(core))
		d.sanCheckTransition(addr, Invalid)
		return 0, false
	}
	ls := &d.lines.slots[i]
	prev := ls.state()
	if prev == Modified && ls.owner() != core {
		dirtyWB = true
		d.stats.DirtyWritebacks++
	}
	invalidated = ls.sharers &^ (1 << uint(core))
	d.stats.Invalidations += uint64(popcount(invalidated))
	*ls = slot{key: addr | uint64(Modified)<<stateShift, sharers: 1 << uint(core)}
	d.sanCheckTransition(addr, prev)
	return invalidated, dirtyWB
}

// Release removes core's copy of addr (its private cache evicted the line).
// dirty reports whether the private copy was dirty; the directory then
// transitions M->I (data written back to LLC by the caller).
//
//lint:hotpath
func (d *Directory) Release(addr uint64, core int, dirty bool) {
	d.checkCore(core)
	d.sanCheckLine(addr)
	i, ok := d.lines.find(addr)
	if !ok {
		return
	}
	ls := &d.lines.slots[i]
	prev := ls.state()
	if ls.sharers &^= 1 << uint(core); ls.sharers == 0 {
		d.lines.remove(i)
	}
	// An E/M line's one sharer is its owner, so releasing the owner's copy
	// untracks the line and any other core's release leaves it unchanged.
	d.sanCheckTransition(addr, prev)
	_ = dirty // dirtiness is the caller's write-back concern; tracked in stats by Shootdown/Acquire paths
}

// Shootdown back-invalidates every private copy of addr because the LLC is
// evicting the line (inclusive hierarchy). It returns the bitmask of cores
// that held copies and whether any copy was dirty (needing a write-back
// ahead of the eviction).
//
//lint:hotpath
func (d *Directory) Shootdown(addr uint64) (holders uint64, dirty bool) {
	d.sanCheckLine(addr)
	i, ok := d.lines.find(addr)
	if !ok {
		return 0, false
	}
	ls := d.lines.slots[i]
	prev := ls.state()
	holders = ls.sharers
	d.stats.Invalidations += uint64(popcount(holders))
	d.stats.Shootdowns++
	dirty = prev == Modified
	if dirty {
		d.stats.DirtyWritebacks++
	}
	d.lines.remove(i)
	d.sanCheckTransition(addr, prev)
	return holders, dirty
}

// TrackedLines returns how many lines the directory currently tracks.
func (d *Directory) TrackedLines() int { return d.lines.n }

func popcount(m uint64) int { return bits.OnesCount64(m) }

func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.numCores {
		panic(fmt.Sprintf("coherence: core %d out of range [0,%d)", core, d.numCores))
	}
}
