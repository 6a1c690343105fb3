package coherence

import "testing"

// refLine is the reference model's value for one tracked line.
type refLine struct {
	state   State
	sharers uint64
}

// TestLineTableMatchesMap drives the line table and a Go map with one
// seeded random put/get/delete sequence and requires identical contents
// and TrackedLines after every step. A few dozen of the addresses hash to the
// table's last slots, at every size, so probe chains wrap the end of the
// array and deletions land inside them; the live population climbs past
// several growth thresholds and back down.
func TestLineTableMatchesMap(t *testing.T) {
	d := MustNewDirectory(64)
	tab := &d.lines
	ref := make(map[uint64]refLine)
	rng := lcg(1)

	// Fibonacci hashing keeps the top bits, so an address homed in the
	// last slots of 1024 stays in the last slots of every doubling.
	var pool []uint64
	for len(pool) < 48 {
		a := rng.next() & (1<<40 - 1) &^ 63
		if tab.home(a) >= minSlots-4 {
			pool = append(pool, a)
		}
	}
	for len(pool) < 3000 {
		pool = append(pool, rng.next()&(1<<40-1)&^63)
	}

	var wrapped, maxSlots int
	const steps = 20_000
	for step := 0; step < steps; step++ {
		a := pool[rng.intn(len(pool))]
		// Bias towards puts for the first half, deletes for the second,
		// so the table grows to several thousand lines and then drains.
		putBias := 7
		if step > steps/2 {
			putBias = 3
		}
		i, found := tab.find(a)
		want, inRef := ref[a]
		if found != inRef {
			t.Fatalf("step %d: find(%#x) found=%v, map has it=%v", step, a, found, inRef)
		}
		if found && (tab.slots[i].state() != want.state || tab.slots[i].sharers != want.sharers) {
			t.Fatalf("step %d: line %#x holds %v/%#x, map %v/%#x", step, a,
				tab.slots[i].state(), tab.slots[i].sharers, want.state, want.sharers)
		}
		switch op := rng.intn(10); {
		case op < putBias:
			v := refLine{state: State(1 + rng.intn(3)), sharers: rng.next() | 1}
			if found {
				tab.slots[i] = slot{key: a | uint64(v.state)<<stateShift, sharers: v.sharers}
			} else {
				tab.insert(i, a, v.state, v.sharers)
			}
			ref[a] = v
		case found:
			tab.remove(i)
			delete(ref, a)
		}
		if j, ok := tab.find(a); ok && j < tab.home(a) {
			wrapped++
		}
		if len(tab.slots) > maxSlots {
			maxSlots = len(tab.slots)
		}
		requireSameLines(t, step, d, ref)
	}
	if wrapped == 0 {
		t.Error("no probe chain wrapped the end of the table")
	}
	if maxSlots < 4*minSlots {
		t.Errorf("table peaked at %d slots; want at least two growths", maxSlots)
	}
}

// requireSameLines fails unless d's line table holds exactly ref's lines.
func requireSameLines(t *testing.T, step int, d *Directory, ref map[uint64]refLine) {
	t.Helper()
	if d.TrackedLines() != len(ref) {
		t.Fatalf("step %d: TrackedLines %d, map holds %d", step, d.TrackedLines(), len(ref))
	}
	occupied := 0
	for _, s := range d.lines.slots {
		if s.key != 0 {
			occupied++
		}
	}
	if occupied != len(ref) {
		t.Fatalf("step %d: %d slots occupied, map holds %d", step, occupied, len(ref))
	}
	for a, want := range ref {
		i, ok := d.lines.find(a)
		if !ok {
			t.Fatalf("step %d: line %#x lost", step, a)
		}
		if s := d.lines.slots[i]; s.state() != want.state || s.sharers != want.sharers {
			t.Fatalf("step %d: line %#x holds %v/%#x, map %v/%#x", step, a, s.state(), s.sharers, want.state, want.sharers)
		}
	}
}

// TestDirectoryRejectsHugeAddress: the line table keys addresses below
// 2^62; anything above would alias into the state bits, so it panics like
// an out-of-range core.
func TestDirectoryRejectsHugeAddress(t *testing.T) {
	d := dir()
	d.WriteAcquire(maxAddr&^63, 1) // the largest line address is accepted
	if d.StateOf(maxAddr&^63) != Modified {
		t.Fatal("largest line address not tracked")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("address 2^62 accepted; want a panic")
		}
	}()
	d.ReadAcquire(1<<62, 0)
}

// lcg is the tests' seeded pseudo-random stream (Knuth's MMIX LCG); the
// high bits are the well-mixed ones.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) intn(n int) int { return int(r.next() >> 33 % uint64(n)) }
