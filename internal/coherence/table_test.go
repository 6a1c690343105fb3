package coherence

import "testing"

// refLine is the reference model's value for one tracked line.
type refLine struct {
	state   State
	sharers uint64
}

// TestLineTableMatchesMap drives the line table and a Go map with one
// seeded random put/get/delete sequence and requires identical contents
// and TrackedLines after every step. The sharer masks are random 16-bit
// masks, so bit 15 sits next to the line field. A few dozen of the
// addresses hash to the table's last slots, at every size, so probe chains
// wrap the end of the array and deletions land inside them; a dozen of
// those lie just below 2^52, where the line field's top bit sits next to
// the state. The live population climbs past several growth thresholds
// and back down.
func TestLineTableMatchesMap(t *testing.T) {
	d := MustNewDirectory(16)
	tab := &d.lines
	ref := make(map[uint64]refLine)
	rng := lcg(1)

	// Fibonacci hashing keeps the top bits, so an address homed in the
	// last slots of 1024 stays in the last slots of every doubling.
	var pool []uint64
	for a := uint64(addrLimit - 64); len(pool) < 12; a -= 64 {
		if tab.home(a) >= minSlots-4 {
			pool = append(pool, a)
		}
	}
	for len(pool) < 48 {
		a := rng.next() & (addrLimit - 1) &^ 63
		if tab.home(a) >= minSlots-4 {
			pool = append(pool, a)
		}
	}
	for len(pool) < 3000 {
		pool = append(pool, rng.next()&(addrLimit-1)&^63)
	}

	var wrapped, maxSlots int
	var topSharer bool
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
		if s := tab.slots[i]; found && (slotState(s) != want.state || slotSharers(s) != want.sharers) {
			t.Fatalf("step %d: line %#x holds %v/%#x, map %v/%#x", step, a,
				slotState(s), slotSharers(s), want.state, want.sharers)
		}
		switch op := rng.intn(10); {
		case op < putBias:
			v := refLine{state: State(1 + rng.intn(3)), sharers: rng.next()>>48 | 1}
			topSharer = topSharer || v.sharers&(1<<15) != 0
			if found {
				tab.slots[i] = pack(a, v.state, v.sharers)
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
	if !topSharer {
		t.Error("no sharer mask held core 15")
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
		if s != 0 {
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
		if s := d.lines.slots[i]; slotState(s) != want.state || slotSharers(s) != want.sharers {
			t.Fatalf("step %d: line %#x holds %v/%#x, map %v/%#x", step, a, slotState(s), slotSharers(s), want.state, want.sharers)
		}
	}
}

// TestDirectoryRejectsHugeAddress: the line table keys 64-byte-aligned
// addresses below 2^52. A higher address would run into the state bits and
// a misaligned one would alias its line, so both panic like an
// out-of-range core.
func TestDirectoryRejectsHugeAddress(t *testing.T) {
	d := dir()
	const top = addrLimit - 64 // the largest line address
	d.WriteAcquire(top, 15)
	if d.StateOf(top) != Modified || d.Sharers(top)[0] != 15 {
		t.Fatal("largest line address not tracked")
	}
	for _, addr := range []uint64{addrLimit, 1 << 62, 0x1008} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("address %#x accepted; want a panic", addr)
				}
			}()
			d.ReadAcquire(addr, 0)
		}()
	}
	if d.TrackedLines() != 1 {
		t.Errorf("TrackedLines %d after the rejected addresses, want 1", d.TrackedLines())
	}
}

// lcg is the tests' seeded pseudo-random stream (Knuth's MMIX LCG); the
// high bits are the well-mixed ones.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) intn(n int) int { return int(r.next() >> 33 % uint64(n)) }
