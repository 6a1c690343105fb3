package cache

import (
	"runtime"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return MustNew(Config{Name: "t", SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 512, Ways: 2, LineBytes: 60},        // line not pow2
		{Name: "b", SizeBytes: 500, Ways: 2, LineBytes: 64},        // size not multiple
		{Name: "c", SizeBytes: 512, Ways: 0, LineBytes: 64},        // zero ways
		{Name: "d", SizeBytes: 512, Ways: 3, LineBytes: 64},        // lines % ways != 0
		{Name: "e", SizeBytes: 1152, Ways: 3, LineBytes: 64},       // 6 sets, not pow2
		{Name: "f", SizeBytes: 0, Ways: 2, LineBytes: 64},          // zero size
		{Name: "g", SizeBytes: 256 * 64, Ways: 256, LineBytes: 64}, // more ways than 7 rank bits order
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %s: expected error", cfg.Name)
		}
	}
}

// TestFrameSize pins the frame at one 4-byte word holding the tag, the
// dirty bit and the rank: a Table I System's 524,288 LLC frames take
// 2 MiB. It measures what New allocates for a 2 MiB LLC bank, whose
// 32,768 frames dwarf the Cache header.
func TestFrameSize(t *testing.T) {
	cfg := Config{Name: "bank", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := MustNew(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	frames := c.Lines()
	got := after.TotalAlloc - before.TotalAlloc
	if got < 4*frames || got > 4*frames+1024 {
		t.Errorf("New allocated %d bytes for %d frames, want 4 per frame (%d) plus a header", got, frames, 4*frames)
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
	// address: addresses up to 6+MaxTagBits bits are in range. The third
	// case carries a tag of the full 30 bits, and the last puts the
	// evicting line at the very top of that range.
	top := uint64(1)<<(6+MaxTagBits) - 64
	addrs := []uint64{0x0, 0xDEAD40, 0xA34567880, top - 1<<20}
	for _, a := range addrs {
		c := MustNew(Config{Name: "one", SizeBytes: 64, Ways: 1, LineBytes: 64})
		c.Fill(a, false)
		v := c.Fill(a+1<<20, false)
		if !v.Valid || v.Addr != a {
			t.Errorf("reconstructed victim %#x, want %#x", v.Addr, a)
		}
	}
}

// TestCheckTagWidth pins each geometry's tag limit, 30-⌈log2 ways⌉ bits:
// one row per associativity at its limit (builds) and one a bit over
// (errors).
func TestCheckTagWidth(t *testing.T) {
	cases := []struct {
		cfg      Config
		addrBits uint
		ok       bool
	}{
		// Table I at 40-bit addresses (16 cores above bit 36): 27 of 28,
		// 25 of 27 and 23 of 26 tag bits.
		{Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64}, 40, true},
		{Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64}, 40, true},
		{Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64}, 40, true},
		// 1 way, 30 tag bits. One set: the tag is everything above the 6
		// offset bits.
		{Config{Name: "dm", SizeBytes: 64, Ways: 1, LineBytes: 64}, 6 + 30, true},
		{Config{Name: "dm", SizeBytes: 64, Ways: 1, LineBytes: 64}, 6 + 31, false},
		// 4 ways, 28 bits: the smallest L1 at 40-bit addresses is 16 KiB.
		{Config{Name: "L1-16K", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64}, 40, true},
		{Config{Name: "L1-8K", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}, 40, false},
		// 8 ways, 27 bits: the smallest L2 at 40-bit addresses is 64 KiB.
		{Config{Name: "L2-64K", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}, 40, true},
		{Config{Name: "L2-32K", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}, 40, false},
		{Config{Name: "one", SizeBytes: 512, Ways: 8, LineBytes: 64}, 6 + 27, true},
		{Config{Name: "one", SizeBytes: 512, Ways: 8, LineBytes: 64}, 6 + 28, false},
		{Config{Name: "one", SizeBytes: 512, Ways: 8, LineBytes: 64}, 40, false},
		// 16 ways, 26 bits: the smallest LLC bank at 40-bit addresses is
		// 256 KiB.
		{Config{Name: "L3-256K", SizeBytes: 256 << 10, Ways: 16, LineBytes: 64}, 40, true},
		{Config{Name: "L3-128K", SizeBytes: 128 << 10, Ways: 16, LineBytes: 64}, 40, false},
		// 128 ways, 23 bits.
		{Config{Name: "wide", SizeBytes: 128 * 64, Ways: 128, LineBytes: 64}, 6 + 23, true},
		{Config{Name: "wide", SizeBytes: 128 * 64, Ways: 128, LineBytes: 64}, 6 + 24, false},
		// A bad geometry is reported whatever the width.
		{Config{Name: "bad", SizeBytes: 64, Ways: 8, LineBytes: 64}, 8, false},
		{Config{Name: "wide", SizeBytes: 128 * 64, Ways: 128, LineBytes: 64}, 8, true},
		{Config{Name: "wider", SizeBytes: 256 * 64, Ways: 256, LineBytes: 64}, 8, false},
	}
	for _, tc := range cases {
		if err := CheckTagWidth(tc.cfg, tc.addrBits); (err == nil) != tc.ok {
			t.Errorf("%s at %d bits: err %v, want ok=%v", tc.cfg.Name, tc.addrBits, err, tc.ok)
		}
	}
}

// refLRU is a reference LRU cache written for clarity, not speed: each set
// keeps its frames and a recency list of way indices, least recent first.
type refLRU struct {
	ways  int
	sets  [][]refFrame
	order [][]int
}

type refFrame struct {
	line         uint64 // line address (addr/64)
	valid, dirty bool
}

func newRefLRU(sets, ways int) *refLRU {
	r := &refLRU{ways: ways, sets: make([][]refFrame, sets), order: make([][]int, sets)}
	for i := range r.sets {
		r.sets[i] = make([]refFrame, ways)
	}
	return r
}

func (r *refLRU) find(line uint64) (set, way int) {
	set = int(line % uint64(len(r.sets)))
	for w, f := range r.sets[set] {
		if f.valid && f.line == line {
			return set, w
		}
	}
	return set, -1
}

// touch moves way to the most recent end of set's recency list.
func (r *refLRU) touch(set, way int) {
	r.drop(set, way)
	r.order[set] = append(r.order[set], way)
}

func (r *refLRU) drop(set, way int) {
	o := r.order[set]
	for i, w := range o {
		if w == way {
			r.order[set] = append(o[:i:i], o[i+1:]...)
			return
		}
	}
}

func (r *refLRU) lookup(line uint64, write bool) (bool, uint64) {
	set, way := r.find(line)
	if way < 0 {
		return false, 0
	}
	r.sets[set][way].dirty = r.sets[set][way].dirty || write
	r.touch(set, way)
	return true, uint64(set*r.ways + way)
}

func (r *refLRU) fill(line uint64, dirty bool) (Victim, uint64) {
	set := int(line % uint64(len(r.sets)))
	way := -1
	for w, f := range r.sets[set] {
		if !f.valid {
			way = w
			break
		}
	}
	var v Victim
	if way < 0 {
		way = r.order[set][0]
		old := r.sets[set][way]
		v = Victim{Addr: old.line * 64, Valid: true, Dirty: old.dirty}
	}
	r.sets[set][way] = refFrame{line: line, valid: true, dirty: dirty}
	r.touch(set, way)
	return v, uint64(set*r.ways + way)
}

func (r *refLRU) invalidate(line uint64) (bool, bool) {
	set, way := r.find(line)
	if way < 0 {
		return false, false
	}
	d := r.sets[set][way].dirty
	r.sets[set][way] = refFrame{}
	r.drop(set, way)
	return true, d
}

// TestLRUMatchesReference runs one random Lookup, Fill, Invalidate,
// CleanLine and Peek stream through a cache and through refLRU on 1-, 3-,
// 4-, 8-, 12- and 16-way geometries, which between them take every path of
// demoteAbove (8-, 4- and 1-byte steps). The per-set recency ranks must reproduce
// the reference's every hit, frame, victim address and dirty bit.
func TestLRUMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 3, 4, 8, 12, 16} {
		const sets = 8
		c := MustNew(Config{Name: "rank", SizeBytes: uint64(sets * ways * 64), Ways: ways, LineBytes: 64})
		ref := newRefLRU(sets, ways)
		state := uint64(0x9E3779B97F4A7C15) + uint64(ways)
		next := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 20
		}
		lines := uint64(3 * sets * ways) // three times the capacity
		evictions := 0
		for i := 0; i < 50_000; i++ {
			r := next()
			line := r % lines
			addr := line*64 + r>>40%64 // any byte of the line
			write := r>>12&1 == 1
			switch op := r >> 8 % 8; op {
			case 0, 1, 2:
				h1, f1 := c.LookupFrame(addr, write)
				h2, f2 := ref.lookup(line, write)
				if h1 != h2 || f1 != f2 {
					t.Fatalf("%d-way op %d lookup %#x: (%v,%d), reference (%v,%d)", ways, i, addr, h1, f1, h2, f2)
				}
			case 3, 4:
				if _, w := ref.find(line); w >= 0 {
					continue // Fill's precondition: the line is absent
				}
				v1, f1 := c.FillFrame(addr, write)
				v2, f2 := ref.fill(line, write)
				if v1 != v2 || f1 != f2 {
					t.Fatalf("%d-way op %d fill %#x: victim %+v frame %d, reference %+v frame %d", ways, i, addr, v1, f1, v2, f2)
				}
				if v1.Valid {
					evictions++
				}
			case 5:
				p1, d1 := c.Invalidate(addr)
				p2, d2 := ref.invalidate(line)
				if p1 != p2 || d1 != d2 {
					t.Fatalf("%d-way op %d invalidate %#x: (%v,%v), reference (%v,%v)", ways, i, addr, p1, d1, p2, d2)
				}
			case 6:
				c.CleanLine(addr)
				if set, w := ref.find(line); w >= 0 {
					ref.sets[set][w].dirty = false
				}
			case 7:
				p1, d1 := c.PeekDirty(addr)
				set, w := ref.find(line)
				if p1 != (w >= 0) || p1 && d1 != ref.sets[set][w].dirty || c.Peek(addr) != p1 {
					t.Fatalf("%d-way op %d peek %#x: (%v,%v), reference present %v", ways, i, addr, p1, d1, w >= 0)
				}
			}
		}
		if evictions < 1000 {
			t.Errorf("%d-way: only %d evictions exercised", ways, evictions)
		}
		var resident uint64
		for _, o := range ref.order {
			resident += uint64(len(o))
		}
		if occ := c.Occupancy(); occ != resident {
			t.Errorf("%d-way: occupancy %d, reference %d", ways, occ, resident)
		}
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
