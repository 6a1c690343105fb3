package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

// windowShift places each test core's lines in their own address window,
// as the simulator does above bit 36; a lower shift keeps the tags of
// these tiny caches narrow.
const windowShift = 20

func lineOf(core, i int) uint64 { return uint64(core)<<windowShift | uint64(i)<<6 }

// private returns one core's L1 (4 sets x 2 ways) and L2 (4 sets x 4 ways).
func private() (l1, l2 *cache.Cache) {
	l1 = cache.MustNew(cache.Config{Name: "L1", SizeBytes: 512, Ways: 2, LineBytes: 64})
	l2 = cache.MustNew(cache.Config{Name: "L2", SizeBytes: 1024, Ways: 4, LineBytes: 64})
	return l1, l2
}

// fillBoth installs line in l2 and then l1, the order the simulator's
// miss path keeps L1 a subset of L2 in.
func fillBoth(l1, l2 *cache.Cache, line uint64, dirty bool) {
	l2.Fill(line, false)
	l1.Fill(line, dirty)
}

func TestShootdown(t *testing.T) {
	l1, l2 := private()
	var st Stats
	line := lineOf(7, 8)
	fillBoth(l1, l2, line, true)
	if dirty := st.Shootdown(l1, l2, line); !dirty {
		t.Error("shootdown of a line dirty in L1 must report dirty")
	}
	if l1.Peek(line) || l2.Peek(line) {
		t.Error("line should be gone from L1 and L2 after shootdown")
	}
	if st != (Stats{Shootdowns: 1, Invalidations: 1}) {
		t.Errorf("stats %+v, want one shootdown and one invalidation", st)
	}
	// Shooting down a line the owner no longer holds is harmless.
	if st.Shootdown(l1, l2, line) {
		t.Error("second shootdown should find nothing")
	}
	if st.Shootdowns != 1 || l1.Stats().Invalidates != 1 || l2.Stats().Invalidates != 1 {
		t.Errorf("second shootdown changed counters: %+v, L1 %+v, L2 %+v", st, l1.Stats(), l2.Stats())
	}
}

// TestReadOfModifiedForcesWriteback: a line the owner modified in L1 while
// its L2 copy stays clean must still be written back when the LLC evicts
// it, because the L1 copy holds the only current data.
func TestReadOfModifiedForcesWriteback(t *testing.T) {
	l1, l2 := private()
	var st Stats
	line := lineOf(0, 2)
	fillBoth(l1, l2, line, false)
	l1.Lookup(line, true) // the owner's store dirties its L1 copy only
	if _, d := l2.PeekDirty(line); d {
		t.Fatal("L2 copy should still be clean")
	}
	if !st.Shootdown(l1, l2, line) {
		t.Error("evicting a line modified in L1 must write back dirty data")
	}
}

// TestWriteInvalidatesSharers: a line has no sharers besides its owner, so
// the shootdown of a written line invalidates the owner's copies of that
// line and nothing else, not even the lines sharing its sets.
func TestWriteInvalidatesSharers(t *testing.T) {
	l1, l2 := private()
	var st Stats
	line, neighbour := lineOf(1, 0), lineOf(1, 4) // same L1 and L2 set
	fillBoth(l1, l2, line, true)
	fillBoth(l1, l2, neighbour, true)
	st.Shootdown(l1, l2, line)
	if !l1.Peek(neighbour) || !l2.Peek(neighbour) {
		t.Error("shootdown removed a neighbouring line")
	}
	if got := l1.Occupancy() + l2.Occupancy(); got != 2 {
		t.Errorf("%d lines remain in L1 and L2, want the neighbour's 2", got)
	}
}

// TestSilentUpgradeOwnLine: with no directory, the owner's store to its own
// clean line takes no coherence action. The L1 hit sets the dirty bit, and
// the next shootdown finds it.
func TestSilentUpgradeOwnLine(t *testing.T) {
	l1, l2 := private()
	var st Stats
	line := lineOf(3, 5)
	fillBoth(l1, l2, line, false)
	if !l1.Lookup(line, true) {
		t.Fatal("store to a resident line must hit")
	}
	if st != (Stats{}) {
		t.Errorf("a store changed the back-invalidation counters: %+v", st)
	}
	if !st.Shootdown(l1, l2, line) || st.Shootdowns != 1 {
		t.Errorf("shootdown after the store: stats %+v, want a dirty line counted once", st)
	}
}

// TestRelease: an L2 eviction releases nothing, since no per-line state
// exists. Once the owner's L2 has dropped the line, the LLC's later eviction
// of it finds nothing and counts nothing.
func TestRelease(t *testing.T) {
	l1, l2 := private()
	var st Stats
	line := lineOf(0, 1)
	fillBoth(l1, l2, line, true)
	// The simulator's L2 victim path invalidates the L1 copy and writes
	// the dirty data back to the LLC.
	l1.Invalidate(line)
	l2.Invalidate(line)
	if st.Shootdown(l1, l2, line) || st != (Stats{}) {
		t.Errorf("shootdown of a released line: stats %+v, want nothing found", st)
	}
}

func TestStatsAccumulation(t *testing.T) {
	l1, l2 := private()
	var st Stats
	fillBoth(l1, l2, lineOf(0, 0), false) // in L1 and L2
	l2.Fill(lineOf(0, 1), true)           // in L2 only
	st.Shootdown(l1, l2, lineOf(0, 0))
	st.Shootdown(l1, l2, lineOf(0, 1))
	st.Shootdown(l1, l2, lineOf(0, 2)) // held nowhere: not counted
	if st != (Stats{Shootdowns: 2, Invalidations: 2}) {
		t.Errorf("stats %+v, want 2 shootdowns and 2 invalidations", st)
	}
	if st.Stats() != st {
		t.Error("Stats must return the counters unchanged")
	}
}

// Property: under any sequence of loads, stores and LLC evictions on three
// cores' private caches, a shootdown reports dirty exactly when the owner
// held the line dirty, leaves no core holding the line, and counts one
// shootdown and one invalidation per eviction that found the line in the
// owner's L2. L1 stays a subset of L2 throughout.
func TestDirectoryInvariantsProperty(t *testing.T) {
	const cores, lines = 3, 32 // 8 lines per L2 set: evictions happen
	f := func(ops []uint16) bool {
		var l1s, l2s [cores]*cache.Cache
		for c := range l1s {
			l1s[c], l2s[c] = private()
		}
		var st Stats
		var held uint64
		for _, op := range ops {
			core := int(op % cores)
			line := lineOf(core, int(op/cores)%lines)
			l1, l2 := l1s[core], l2s[core]
			switch kind := (op / (cores * lines)) % 3; kind {
			case 0, 1: // load or store by the owner
				write := kind == 1
				if l1.Lookup(line, write) {
					break
				}
				if !l2.Lookup(line, false) {
					if v := l2.Fill(line, false); v.Valid {
						l1.Invalidate(v.Addr) // inclusion: L2 victims leave L1
					}
				}
				if v := l1.Fill(line, write); v.Valid && v.Dirty {
					l2.Lookup(v.Addr, true) // L1 write-back into L2
				}
			case 2: // the LLC evicts the line
				in2, d2 := l2.PeekDirty(line)
				_, d1 := l1.PeekDirty(line)
				if in2 {
					held++
				}
				if st.Shootdown(l1, l2, line) != (d1 || d2) {
					return false
				}
				for c := range l1s {
					if l1s[c].Peek(line) || l2s[c].Peek(line) {
						return false
					}
				}
			}
			if st.Shootdowns != held || st.Invalidations != held {
				return false
			}
		}
		for c := range l1s {
			for i := 0; i < lines; i++ {
				if l1s[c].Peek(lineOf(c, i)) && !l2s[c].Peek(lineOf(c, i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
