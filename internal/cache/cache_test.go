package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return MustNew(Config{Name: "t", SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 512, Ways: 2, LineBytes: 60},  // line not pow2
		{Name: "b", SizeBytes: 500, Ways: 2, LineBytes: 64},  // size not multiple
		{Name: "c", SizeBytes: 512, Ways: 0, LineBytes: 64},  // zero ways
		{Name: "d", SizeBytes: 512, Ways: 3, LineBytes: 64},  // lines % ways != 0
		{Name: "e", SizeBytes: 1152, Ways: 3, LineBytes: 64}, // 6 sets, not pow2
		{Name: "f", SizeBytes: 0, Ways: 2, LineBytes: 64},    // zero size
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %s: expected error", cfg.Name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{Name: "bad", SizeBytes: 1, Ways: 1, LineBytes: 64})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x1000, false) {
		t.Fatal("cold lookup should miss")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("lookup after fill should hit")
	}
	if !c.Lookup(0x1008, false) {
		t.Fatal("same-line different-offset lookup should hit")
	}
	s := c.Stats()
	if s.ReadMisses != 1 || s.ReadHits != 2 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := small()
	c.Fill(0x1000, false)
	c.Lookup(0x1000, true)
	if _, dirty := c.PeekDirty(0x1000); !dirty {
		t.Error("write hit should dirty the line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways per set
	// Three lines mapping to the same set (set index bits are addr[7:6]).
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // make a most-recent
	v := c.Fill(d, false)
	if !v.Valid || v.Addr != b {
		t.Errorf("victim = %+v, want line %#x", v, b)
	}
	if !c.Peek(a) || !c.Peek(d) || c.Peek(b) {
		t.Error("unexpected residency after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := small()
	c.Fill(0x0000, false)
	c.Lookup(0x0000, true) // dirty it
	c.Fill(0x0100, false)
	v := c.Fill(0x0200, false) // evicts 0x0000 (LRU)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Errorf("victim = %+v, want dirty line 0", v)
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Errorf("DirtyEvicts = %d, want 1", c.Stats().DirtyEvicts)
	}
}

func TestFillDirtyWriteAllocate(t *testing.T) {
	c := small()
	c.Fill(0x40, true)
	if _, dirty := c.PeekDirty(0x40); !dirty {
		t.Error("dirty fill should install a dirty line")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Peek(0x40) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Error("second invalidate should report absent")
	}
}

func TestCleanLine(t *testing.T) {
	c := small()
	c.Fill(0x40, true)
	c.CleanLine(0x40)
	if _, dirty := c.PeekDirty(0x40); dirty {
		t.Error("line should be clean after CleanLine")
	}
	c.CleanLine(0xFFFF000) // absent line: no-op, must not panic
}

func TestPeekDoesNotDisturbLRUOrStats(t *testing.T) {
	c := small()
	c.Fill(0x0000, false)
	c.Fill(0x0100, false)
	before := c.Stats()
	c.Peek(0x0000) // would make it MRU if Peek touched recency
	if c.Stats() != before {
		t.Error("Peek changed stats")
	}
	v := c.Fill(0x0200, false)
	if v.Addr != 0x0000 {
		t.Errorf("Peek disturbed LRU: victim %#x, want 0x0", v.Addr)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// A one-frame cache has no set bits, so its tag is the whole line
	// address: addresses up to 6+MaxTagBits bits are in range. The last
	// case puts the evicting line at the very top of that range.
	top := uint64(1)<<(6+MaxTagBits) - 64
	addrs := []uint64{0x0, 0xDEAD40, 0x1234567880, top - 1<<20}
	for _, a := range addrs {
		c := MustNew(Config{Name: "one", SizeBytes: 64, Ways: 1, LineBytes: 64})
		c.Fill(a, false)
		v := c.Fill(a+1<<20, false)
		if !v.Valid || v.Addr != a {
			t.Errorf("reconstructed victim %#x, want %#x", v.Addr, a)
		}
	}
}

func TestCheckTagWidth(t *testing.T) {
	cases := []struct {
		cfg      Config
		addrBits uint
		ok       bool
	}{
		// Table I at 40-bit addresses (16 cores above bit 36).
		{Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64}, 40, true},
		{Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64}, 40, true},
		{Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64}, 40, true},
		// One set: the tag is everything above the 6 offset bits.
		{Config{Name: "one", SizeBytes: 512, Ways: 8, LineBytes: 64}, 6 + MaxTagBits, true},
		{Config{Name: "one", SizeBytes: 512, Ways: 8, LineBytes: 64}, 7 + MaxTagBits, false},
		{Config{Name: "one", SizeBytes: 512, Ways: 8, LineBytes: 64}, 40, false},
		// A bad geometry is reported whatever the width.
		{Config{Name: "bad", SizeBytes: 64, Ways: 8, LineBytes: 64}, 8, false},
	}
	for _, tc := range cases {
		if err := CheckTagWidth(tc.cfg, tc.addrBits); (err == nil) != tc.ok {
			t.Errorf("%s at %d bits: err %v, want ok=%v", tc.cfg.Name, tc.addrBits, err, tc.ok)
		}
	}
}

// TestClockRenormalisationIsExact runs one random Lookup/Fill/Invalidate
// stream through two caches: one whose LRU clock starts at 0 and never
// renormalises within the run, and one whose clock is pushed to just
// below clockMax at the start and every 1000 operations, so it
// renormalises about a hundred times. Moving a clock forward is itself
// exact (every later stamp still exceeds every stored one), so the two
// must agree on every hit, frame, victim and dirty bit.
func TestClockRenormalisationIsExact(t *testing.T) {
	cfg := Config{Name: "twin", SizeBytes: 8 * 4 * 64, Ways: 4, LineBytes: 64}
	ref, wrapped := MustNew(cfg), MustNew(cfg)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	const ops = 100_000
	renorms, last := 0, uint32(0)
	for i := 0; i < ops; i++ {
		if wrapped.tick < last {
			renorms++ // only renormalisation moves the clock back
		}
		if i%1000 == 0 {
			if jump := clockMax - uint32(next()%64); jump > wrapped.tick {
				wrapped.tick = jump
			}
		}
		last = wrapped.tick
		r := next()
		addr := (r % 96) * 64 // 96 lines over a 32-line cache
		switch (r >> 8) % 4 {
		case 0, 1:
			write := r>>10&1 == 1
			h1, f1 := ref.LookupFrame(addr, write)
			h2, f2 := wrapped.LookupFrame(addr, write)
			if h1 != h2 || f1 != f2 {
				t.Fatalf("op %d lookup %#x: (%v,%d) vs (%v,%d)", i, addr, h1, f1, h2, f2)
			}
		case 2:
			if ref.Peek(addr) {
				continue
			}
			dirty := r>>10&1 == 1
			v1, f1 := ref.FillFrame(addr, dirty)
			v2, f2 := wrapped.FillFrame(addr, dirty)
			if v1 != v2 || f1 != f2 {
				t.Fatalf("op %d fill %#x: victim %+v frame %d vs %+v frame %d", i, addr, v1, f1, v2, f2)
			}
		case 3:
			p1, d1 := ref.Invalidate(addr)
			p2, d2 := wrapped.Invalidate(addr)
			if p1 != p2 || d1 != d2 {
				t.Fatalf("op %d invalidate %#x: (%v,%v) vs (%v,%v)", i, addr, p1, d1, p2, d2)
			}
		}
	}
	if renorms < 50 {
		t.Errorf("only %d renormalisations exercised", renorms)
	}
	if ref.Stats() != wrapped.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", ref.Stats(), wrapped.Stats())
	}
}

func TestOccupancyAndLines(t *testing.T) {
	c := small()
	if c.Lines() != 8 || c.NumSets() != 4 {
		t.Fatalf("geometry: lines=%d sets=%d", c.Lines(), c.NumSets())
	}
	for i := uint64(0); i < 20; i++ {
		c.Fill(i*64, false)
	}
	if c.Occupancy() != 8 {
		t.Errorf("occupancy %d, want full 8", c.Occupancy())
	}
}

func TestResetStats(t *testing.T) {
	c := small()
	c.Lookup(0, false)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("stats not zeroed")
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{ReadHits: 3, WriteHits: 1, ReadMisses: 2, WriteMisses: 2}
	if s.Hits() != 4 || s.Misses() != 4 || s.Accesses() != 8 || s.HitRate() != 0.5 {
		t.Errorf("derived stats wrong: %+v", s)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// Property: a line that was filled and never evicted/invalidated always
// hits; occupancy never exceeds capacity; hits+misses == lookups.
func TestCachePropertyModelConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{Name: "q", SizeBytes: 1024, Ways: 4, LineBytes: 64})
		resident := map[uint64]bool{}
		lookups := uint64(0)
		for _, op := range ops {
			addr := uint64(op%64) * 64 // 64 distinct lines, 16-line cache
			switch op % 3 {
			case 0:
				lookups++
				hit := c.Lookup(addr, op%2 == 0)
				if hit != c.Peek(addr) && hit {
					return false
				}
			case 1:
				if !c.Peek(addr) {
					v := c.Fill(addr, false)
					resident[addr] = true
					if v.Valid {
						delete(resident, v.Addr)
					}
				}
			case 2:
				c.Invalidate(addr)
				delete(resident, addr)
			}
			if c.Occupancy() > 16 {
				return false
			}
		}
		// Every line the model says is resident must Peek true.
		for a := range resident {
			if !c.Peek(a) {
				return false
			}
		}
		s := c.Stats()
		return s.Accesses() == lookups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
