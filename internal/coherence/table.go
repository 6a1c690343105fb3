package coherence

import (
	"fmt"
	"math/bits"
)

// lineTable is the directory's line store: a flat open-addressing hash
// table sized to the lines it tracks. A Go map held the same lines in about
// 50 bytes each; 8-byte slots at ⅜ to ¾ load come to 11–21 bytes a line.
//
// Each slot packs one tracked line into a uint64:
//
//	state<<62 | (addr>>6)<<16 | sharers
//
// the MESI state in the top two bits, the 46-bit line index below it, and
// the 16-bit sharer mask at the bottom. A tracked line is never Invalid,
// so a live slot is never zero and zero marks an empty slot; the owner of
// an E/M line is derived from its single sharer bit. Lookups probe
// linearly from a Fibonacci-hashed home slot; deletions shift the rest of
// the probe chain back, so the table holds no tombstones and a probe stops
// at the first empty slot. The table starts at minSlots and doubles
// whenever an insertion would take it past ¾ load.
type lineTable struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int  // occupied slots

	sanOps int // simcheck builds: operations since the last full table check
}

const (
	sharerBits = 16
	stateShift = 62
	// lineShift moves a 64-byte-aligned address into a slot's line field:
	// addr<<lineShift is (addr>>6)<<sharerBits.
	lineShift  = sharerBits - 6
	lineField  = 1<<stateShift - 1<<sharerBits
	sharerMask = 1<<sharerBits - 1

	// addrLimit bounds the addresses the table can key: the line index
	// has 46 bits. A System's physical addresses are below 2^40.
	addrLimit = 1 << (stateShift - lineShift)

	minSlotsLog2 = 10
	minSlots     = 1 << minSlotsLog2
)

// pack builds the slot of a line at addr in state st held by sharers.
func pack(addr uint64, st State, sharers uint64) uint64 {
	return uint64(st)<<stateShift | addr<<lineShift | sharers
}

func slotAddr(s uint64) uint64    { return (s & lineField) >> lineShift }
func slotState(s uint64) State    { return State(s >> stateShift) }
func slotSharers(s uint64) uint64 { return s & sharerMask }

// slotOwner is the core holding an E/M line, whose sharer mask has exactly
// one bit set (the simcheck sanitizer enforces it).
func slotOwner(s uint64) int { return bits.TrailingZeros64(s & sharerMask) }

func newLineTable() lineTable {
	return lineTable{slots: make([]uint64, minSlots), shift: 64 - minSlotsLog2}
}

// home is addr's Fibonacci-hashed home slot.
func (t *lineTable) home(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding addr and true, or the empty slot that ends
// addr's probe chain (where an insertion goes) and false. addr must be a
// 64-byte-aligned address below 2^52; anything else would alias another
// line, so it panics like an out-of-range core.
//
//lint:hotpath
func (t *lineTable) find(addr uint64) (int, bool) {
	if addr&(63|^uint64(addrLimit-1)) != 0 {
		panic(fmt.Sprintf("coherence: address %#x is not a 64-byte line below 2^%d", addr, stateShift-lineShift))
	}
	key := addr << lineShift
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, false
		}
		if s&lineField == key {
			return i, true
		}
	}
}

// insert stores a new line at i, the empty slot find returned for addr.
//
//lint:hotpath
func (t *lineTable) insert(i int, addr uint64, st State, sharers uint64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		i, _ = t.find(addr)
	}
	t.slots[i] = pack(addr, st, sharers)
	t.n++
}

// remove empties slot i and shifts back every later entry of its probe
// chain that may move closer to its home slot, keeping every entry
// reachable from home without crossing an empty slot.
//
//lint:hotpath
func (t *lineTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(slotAddr(t.slots[j])))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// grow doubles the slot array and rehashes every line into it. Doubling at
// ¾ load keeps the total rehash work proportional to the lines inserted.
// A table grows only when its population sets a new peak, and a System's
// private caches bound that: at Table I, 16 × 4,096 L2 lines stop the
// table at 131,072 slots (1 MiB), after which it allocates nothing.
func (t *lineTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := t.home(slotAddr(s))
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
