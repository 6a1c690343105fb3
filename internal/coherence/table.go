package coherence

import (
	"fmt"
	"math/bits"
)

// lineTable is the directory's line store: a flat open-addressing hash
// table sized to the lines it tracks. A Go map held the same lines in about
// 50 bytes each; 16-byte slots at ⅜ to ¾ load come to 21–43 bytes a line.
//
// Each slot packs one tracked line. The key holds the line address
// in its low 62 bits and the MESI state in its top two. A tracked line is
// never Invalid, so a live key is never zero and zero marks an empty slot;
// the owner of an E/M line is derived from its single sharer bit. Lookups
// probe linearly from a Fibonacci-hashed home slot; deletions shift the
// rest of the probe chain back, so the table holds no tombstones and a
// probe stops at the first empty slot. The table starts at minSlots and
// doubles whenever an insertion would take it past ¾ load.
type lineTable struct {
	slots []slot
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int  // occupied slots

	sanOps int // simcheck builds: operations since the last full table check
}

// slot is one tracked line.
type slot struct {
	key     uint64 // addr | state<<stateShift; 0 = empty
	sharers uint64 // bitmask of cores with a copy
}

const (
	stateShift = 62
	// maxAddr bounds the addresses the table can key: the top two key bits
	// hold the state. A System's physical addresses are below 2^40.
	maxAddr = 1<<stateShift - 1

	minSlotsLog2 = 10
	minSlots     = 1 << minSlotsLog2
)

func (s slot) addr() uint64 { return s.key & maxAddr }
func (s slot) state() State { return State(s.key >> stateShift) }

// owner is the core holding an E/M line, whose sharer mask has exactly
// one bit set (the simcheck sanitizer enforces it).
func (s slot) owner() int { return bits.TrailingZeros64(s.sharers) }

func newLineTable() lineTable {
	return lineTable{slots: make([]slot, minSlots), shift: 64 - minSlotsLog2}
}

// home is addr's Fibonacci-hashed home slot.
func (t *lineTable) home(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding addr and true, or the empty slot that ends
// addr's probe chain (where an insertion goes) and false.
//
//lint:hotpath
func (t *lineTable) find(addr uint64) (int, bool) {
	if addr > maxAddr {
		panic(fmt.Sprintf("coherence: address %#x at or above 2^%d", addr, stateShift))
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		k := t.slots[i].key
		if k == 0 {
			return i, false
		}
		if k&maxAddr == addr {
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
	t.slots[i] = slot{key: addr | uint64(st)<<stateShift, sharers: sharers}
	t.n++
}

// remove empties slot i and shifts back every later entry of its probe
// chain that may move closer to its home slot, keeping every entry
// reachable from home without crossing an empty slot.
//
//lint:hotpath
func (t *lineTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.slots[j].addr()))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

// grow doubles the slot array and rehashes every line into it. Doubling at
// ¾ load keeps the total rehash work proportional to the lines inserted.
// A table grows only when its population sets a new peak, and a System's
// private caches bound that: at Table I, 16 × 4,096 L2 lines stop the
// table at 131,072 slots (2 MiB), after which it allocates nothing.
func (t *lineTable) grow() {
	old := t.slots
	t.slots = make([]slot, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.addr())
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
