package tlb

import (
	"testing"
	"testing/quick"
)

func tb() *TLB { return MustNew(DefaultConfig()) }

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Entries: 64, Ways: 0, PageBytes: 4096, LineBytes: 64},
		{Entries: 63, Ways: 8, PageBytes: 4096, LineBytes: 64},
		{Entries: 24, Ways: 8, PageBytes: 4096, LineBytes: 64},  // 3 sets
		{Entries: 64, Ways: 8, PageBytes: 4095, LineBytes: 64},  // page not pow2
		{Entries: 64, Ways: 8, PageBytes: 4096, LineBytes: 0},   // bad line
		{Entries: 64, Ways: 8, PageBytes: 8192, LineBytes: 64},  // 128 lines > 64-bit MBV
		{Entries: 0, Ways: 8, PageBytes: 4096, LineBytes: 64},   // empty
		{Entries: 64, Ways: 8, PageBytes: 4096, LineBytes: 100}, // line not pow2
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	tl := tb()
	for _, step := range []struct {
		va   uint64
		want bool
		what string
	}{
		{0x1000, false, "cold access should miss"},
		{0x1000, true, "second access should hit"},
		{0x1FC0, true, "same-page different-line access should hit"},
		{0x2000, false, "next page should miss"},
	} {
		if hit, _ := tl.Translate(step.va); hit != step.want {
			t.Fatal(step.what)
		}
	}
	s := tl.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMappingBitLifecycle(t *testing.T) {
	tl := tb()
	va := uint64(0x5000 + 3*64) // page 5, line 3
	tl.Translate(va)            // install entry
	if tl.MappingBit(va) {
		t.Fatal("fresh entry must report S-NUCA (bit 0)")
	}
	tl.SetMappingBit(va, true)
	if !tl.MappingBit(va) {
		t.Fatal("bit should be set after critical fill")
	}
	// Neighbouring line in the same page is unaffected.
	if tl.MappingBit(0x5000 + 4*64) {
		t.Fatal("neighbouring line's bit leaked")
	}
	tl.ClearMappingBit(va)
	if tl.MappingBit(va) {
		t.Fatal("bit should be clear after LLC eviction")
	}
	s := tl.Stats()
	if s.BitSets != 1 || s.BitClears != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSetMappingBitNonCriticalClears(t *testing.T) {
	tl := tb()
	va := uint64(0x7000)
	tl.Translate(va)
	tl.SetMappingBit(va, true)
	tl.SetMappingBit(va, false)
	if tl.MappingBit(va) {
		t.Error("non-critical update must clear the bit")
	}
}

func TestUpdatesForNonResidentPageDropped(t *testing.T) {
	tl := tb()
	tl.SetMappingBit(0x9000, true)
	tl.ClearMappingBit(0x9000)
	if tl.MappingBit(0x9000) {
		t.Error("non-resident page must read as S-NUCA")
	}
	if tl.Stats().DroppedUpdates != 2 {
		t.Errorf("dropped = %d, want 2", tl.Stats().DroppedUpdates)
	}
}

func TestEvictionLosesMappingBits(t *testing.T) {
	tl := tb() // 8 sets x 8 ways; pages mapping to set 0 are vpn % 8 == 0
	// Fill set 0 with 8 pages, each with one MBV bit set.
	for i := uint64(0); i < 8; i++ {
		va := i * 8 * 4096 // vpn = 8i -> set 0
		tl.Translate(va)
		tl.SetMappingBit(va, true)
	}
	// Ninth page in set 0 evicts the LRU (the first).
	tl.Translate(8 * 8 * 4096)
	s := tl.Stats()
	if s.Evictions != 1 || s.LostMappingBits != 1 {
		t.Errorf("stats = %+v, want 1 eviction losing 1 bit", s)
	}
	if tl.Resident(0) {
		t.Error("first page should have been evicted")
	}
	// Its line now reads S-NUCA even though it was filled critical — the
	// corner the simulator's two-probe fallback handles.
	tl.Translate(0)
	if tl.MappingBit(0) {
		t.Error("reloaded entry must start with a zero MBV")
	}
}

func TestLRUWithinSet(t *testing.T) {
	tl := tb()
	pages := make([]uint64, 9)
	for i := range pages {
		pages[i] = uint64(i) * 8 * 4096 // all set 0
	}
	for _, p := range pages[:8] {
		tl.Translate(p)
	}
	tl.Translate(pages[0]) // refresh page 0
	tl.Translate(pages[8]) // evicts page 1, not page 0
	if !tl.Resident(pages[0]) {
		t.Error("recently-used page 0 must survive")
	}
	if tl.Resident(pages[1]) {
		t.Error("LRU page 1 must be the victim")
	}
}

// TestTranslateReportsMappingBit pins the walk's single probe against the
// separate reads it replaces: over a random stream of translations and MBV
// updates, Translate hits exactly when the page was resident, and its mbv
// is what MappingBit reads for the line right afterwards.
func TestTranslateReportsMappingBit(t *testing.T) {
	tl := tb()
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 20_000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		va := (state>>40%160)*4096 | (state>>20)&0xFC0 // 160 pages over 64 entries
		resident := tl.Resident(va)
		hit, mbv := tl.Translate(va)
		if want := tl.MappingBit(va); hit != resident || mbv != want {
			t.Fatalf("op %d va %#x: Translate (%v,%v), want (%v,%v)", i, va, hit, mbv, resident, want)
		}
		if state>>10&3 == 0 {
			tl.SetMappingBit(va, state>>12&1 == 1)
		}
	}
	if s := tl.Stats(); s.Misses == 0 || s.BitSets == 0 {
		t.Errorf("stream exercised too little: %+v", s)
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	// Paper: 64 entries x 64 bits = 512 bytes per TLB.
	if got := tb().OverheadBits(); got != 64*64 {
		t.Errorf("overhead = %d bits, want %d", got, 64*64)
	}
}

func TestHitRate(t *testing.T) {
	tl := tb()
	tl.Translate(0)
	tl.Translate(0)
	tl.Translate(0)
	tl.Translate(0)
	if got := tl.Stats().HitRate(); got != 0.75 {
		t.Errorf("hit rate %v, want 0.75", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestResetStats(t *testing.T) {
	tl := tb()
	tl.Translate(0)
	tl.ResetStats()
	if tl.Stats() != (Stats{}) {
		t.Error("stats not zeroed")
	}
}

// Property: for a resident page, MappingBit always reflects the last
// SetMappingBit/ClearMappingBit on that exact line, independent of
// operations on other lines of the page.
func TestMappingBitIndependenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tl := tb()
		va := uint64(0x40000)
		tl.Translate(va)
		model := map[uint64]bool{}
		for _, op := range ops {
			line := uint64(op % 64)
			addr := va + line*64
			switch (op / 64) % 3 {
			case 0:
				tl.SetMappingBit(addr, true)
				model[line] = true
			case 1:
				tl.SetMappingBit(addr, false)
				model[line] = false
			case 2:
				tl.ClearMappingBit(addr)
				model[line] = false
			}
		}
		for line, want := range model {
			if tl.MappingBit(va+line*64) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
