package sim

import (
	"testing"

	"repro/internal/nuca"
	"repro/internal/trace"
)

// walkSystem builds a default 16-core system with quiet apps for direct
// walk-level testing (we drive walks by hand, not through the cores).
func walkSystem(t *testing.T, policy nuca.Policy) *System {
	t.Helper()
	s, err := New(DefaultConfig(policy), testApps(16))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWalkL1HitFastPath(t *testing.T) {
	s := walkSystem(t, nuca.SNUCA)
	addr := uint64(1 << 30)
	s.Load(0, 0x10, addr, false, 0) // cold: fills everything
	t0 := uint64(10_000)
	done := s.Load(0, 0x10, addr, false, t0)
	want := t0 + uint64(s.cfg.L1.Latency)
	if done != want {
		t.Errorf("L1 hit completed at %d, want %d", done, want)
	}
}

func TestWalkChargesTLBMiss(t *testing.T) {
	s := walkSystem(t, nuca.SNUCA)
	a1 := uint64(1 << 30)
	a2 := a1 + 4096 // different page
	s.Load(0, 0x10, a1, false, 0)
	if got := s.Counters(0).TLBMisses; got != 1 {
		t.Fatalf("first page: %d TLB misses, want 1", got)
	}
	s.Load(0, 0x10, a1+64, false, 100_000) // same page: no new walk
	if got := s.Counters(0).TLBMisses; got != 1 {
		t.Errorf("same-page access walked again: %d misses", got)
	}
	s.Load(0, 0x10, a2+64, false, 200_000) // fresh page: one more walk
	if got := s.Counters(0).TLBMisses; got != 2 {
		t.Errorf("fresh page: %d TLB misses, want 2", got)
	}
	// The walk penalty is charged on the miss path: an L1 hit on a
	// TLB-resident page costs exactly the L1 latency (no hidden adder).
	t0 := uint64(300_000)
	if done := s.Load(0, 0x10, a1, false, t0); done != t0+uint64(s.cfg.L1.Latency) {
		t.Errorf("TLB-hit L1-hit load took %d cycles", done-t0)
	}
}

func TestWalkL2HitCheaperThanLLCHit(t *testing.T) {
	s := walkSystem(t, nuca.SNUCA)
	addr := uint64(1 << 30)
	s.Load(0, 0x10, addr, false, 0)
	// Evict from L1 only by filling conflicting L1 lines (same L1 set):
	// L1 is 32KB/4-way = 128 sets; lines 128*64 bytes apart collide.
	for i := uint64(1); i <= 8; i++ {
		s.Load(0, 0x11, addr+i*128*64, false, 1000+i*100)
	}
	t0 := uint64(500_000)
	l2hit := s.Load(0, 0x10, addr, false, t0) - t0
	if l2hit < uint64(s.cfg.L1.Latency)+uint64(s.cfg.L2.Latency) {
		t.Fatalf("L2 hit latency %d impossibly low", l2hit)
	}
	if l2hit > 40 {
		t.Errorf("L2 hit latency %d, want well under an LLC round trip", l2hit)
	}
}

func TestStoreWriteAllocatesDirtyInL1(t *testing.T) {
	s := walkSystem(t, nuca.SNUCA)
	addr := uint64(1 << 30)
	acc := s.Store(0, 0x20, addr, false, 0)
	if acc != uint64(s.cfg.L1.Latency) {
		t.Errorf("store acceptance %d, want L1 latency %d", acc, s.cfg.L1.Latency)
	}
	pa := paddr(0, addr)
	if present, dirty := s.l1[0].PeekDirty(pa); !present || !dirty {
		t.Errorf("store must leave a dirty L1 line: present=%v dirty=%v", present, dirty)
	}
	if _, ok := s.LLC().Contains(pa); !ok {
		t.Error("write-allocate must install the line in the LLC")
	}
}

func TestWritebackReachesLLCAndWearsIt(t *testing.T) {
	s := walkSystem(t, nuca.SNUCA)
	addr := uint64(1 << 30)
	s.Store(0, 0x20, addr, false, 0)
	wearBefore := s.LLC().Wear().TotalWrites()
	// Push the dirty line out of L1 and then out of L2: L2 is 256KB/8-way
	// = 512 sets; lines 512*64 apart collide in L2 (and also in L1).
	for i := uint64(1); i <= 12; i++ {
		s.Load(0, 0x21, addr+i*512*64, false, 10_000+i*1000)
	}
	if got := s.Counters(0).Writebacks; got == 0 {
		t.Fatal("no write-back reached the LLC")
	}
	if s.LLC().Wear().TotalWrites() <= wearBefore {
		t.Error("write-back must wear the ReRAM")
	}
	if s.LLC().Stats().WritebackHits == 0 {
		t.Error("the written-back line was LLC-resident; expected a write-back hit")
	}
}

func TestNaiveRoutesThroughHomeBank(t *testing.T) {
	s := walkSystem(t, nuca.NaiveWL)
	sn := walkSystem(t, nuca.SNUCA)
	addr := uint64(1 << 30)
	naive := s.Load(0, 0x10, addr, false, 0)
	plain := sn.Load(0, 0x10, addr, false, 0)
	// The Naive miss skips the bank probe but pays home routing plus the
	// directory; with DirLatency 250 > BankLatency 100 it must be slower.
	if naive <= plain {
		t.Errorf("Naive cold miss (%d) should cost more than S-NUCA (%d)", naive, plain)
	}
}

func TestReNUCAMBVLifecycleThroughWalk(t *testing.T) {
	s := walkSystem(t, nuca.ReNUCA)
	addr := uint64(1 << 30)
	pa := paddr(3, addr)
	// Non-critical fill: MBV stays 0.
	s.Load(3, 0x30, addr, false, 0)
	if s.TLB(3).MappingBit(pa) {
		t.Error("non-critical fill must leave MBV=0")
	}
	// Critical fill of a different line: MBV set.
	addr2 := addr + 2*64
	pa2 := paddr(3, addr2)
	s.Load(3, 0x31, addr2, true, 1000)
	if !s.TLB(3).MappingBit(pa2) {
		t.Error("critical fill must set the MBV bit")
	}
	// The critical line must live in the R-NUCA bank.
	bank, ok := s.LLC().Contains(pa2)
	if !ok {
		t.Fatal("critical line missing from LLC")
	}
	rm, _ := nuca.NewRNUCAMap(4, 4, 64)
	if want := rm.Bank(pa2, 3); bank != want {
		t.Errorf("critical line in bank %d, want R-NUCA bank %d", bank, want)
	}
}

func TestLLCVictimShootdownInvalidatesUpperLevels(t *testing.T) {
	cfg := DefaultConfig(nuca.SNUCA)
	// Shrink the LLC so evictions happen quickly: 4KB banks, 4-way. Four
	// cores narrow addresses to 38 bits, where that is the smallest 4-way
	// bank a frame's tag field allows.
	cfg.Cores = 4
	cfg.LLC.BankBytes = 4096
	cfg.LLC.Ways = 4
	s, err := New(cfg, testApps(cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(1 << 30)
	s.Load(0, 0x40, addr, false, 0)
	pa := paddr(0, addr)
	if !s.l2[0].Peek(pa) {
		t.Fatal("setup: line not in L2")
	}
	// Fill far past LLC capacity (16 banks x 64 lines = 1024 lines).
	for i := uint64(1); i <= 4096; i++ {
		s.Load(1, 0x41, addr+i*64, false, 1000+i*500)
	}
	if _, ok := s.LLC().Contains(pa); ok {
		t.Skip("line survived the eviction storm; nothing to verify")
	}
	if s.l2[0].Peek(pa) || s.l1[0].Peek(pa) {
		t.Error("inclusive shootdown failed: upper-level copy outlived the LLC line")
	}
	if s.Directory().StateOf(pa) != 0 { // coherence.Invalid
		t.Error("directory still tracks the evicted line")
	}
}

func TestPaddrScattersCores(t *testing.T) {
	// Same virtual line on different cores must land in different LLC sets
	// (the anti-aliasing scatter).
	va := uint64(1 << 30)
	set := map[uint64]bool{}
	for core := 0; core < 16; core++ {
		pa := paddr(core, va)
		if pa>>coreAddrShift&0xF != uint64(core) {
			t.Fatalf("core bits lost: %#x", pa)
		}
		set[(pa>>6)&0x7FFF] = true // bank+set bits
	}
	if len(set) < 12 {
		t.Errorf("core scatter too weak: %d distinct set mappings of 16", len(set))
	}
	// Offset within line must be preserved.
	if paddr(3, va+17)&63 != 17 {
		t.Error("intra-line offset not preserved")
	}
}

func TestCoreOfRoundTrips(t *testing.T) {
	s := walkSystem(t, nuca.SNUCA)
	for core := 0; core < 16; core++ {
		if got := s.coreOf(paddr(core, 12345)); got != core {
			t.Errorf("coreOf(paddr(%d)) = %d", core, got)
		}
	}
}

func TestWalkUsesGeneratorProfiles(t *testing.T) {
	// End-to-end smoke: a tiny run produces traffic consistent with the
	// profile classes (streamL writes, namd mostly quiet).
	cfg := DefaultConfig(nuca.SNUCA)
	apps := make([]trace.Profile, 16)
	for i := range apps {
		if i == 0 {
			apps[i] = trace.MustProfile("streamL")
		} else {
			apps[i] = trace.MustProfile("namd")
		}
	}
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunMeasured(5_000, 30_000); err != nil {
		t.Fatal(err)
	}
	if s.Counters(0).LLCMisses < 10*s.Counters(1).LLCMisses {
		t.Errorf("streamL misses (%d) should dwarf namd misses (%d)",
			s.Counters(0).LLCMisses, s.Counters(1).LLCMisses)
	}
}

// TestFallbackHitRelearnsMappingBit: when a Re-NUCA fallback probe recovers
// a line whose MBV bit was lost to a TLB entry eviction, the walk must
// re-learn the bit from the hitting bank — otherwise every later access to
// the line pays the two-probe fallback forever. The scenario: a critical
// fill places a line at its R-NUCA bank and sets the bit; pressure evicts
// the page's TLB entry (losing the bit); the next access falls back (two
// probes), after which exactly one more probe per access suffices.
func TestFallbackHitRelearnsMappingBit(t *testing.T) {
	cfg := DefaultConfig(nuca.ReNUCA)
	s, err := New(cfg, testApps(cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	rmap, err := nuca.NewRNUCAMap(cfg.LLC.MeshWidth, cfg.LLC.MeshHeight, cfg.LLC.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a core-0 address whose S-NUCA and R-NUCA banks differ, so the
	// two-probe fallback is observable. For core 0 paddr is the identity.
	var target uint64
	for a := uint64(0); a < 1<<16; a += 64 {
		pa := paddr(0, a)
		if nuca.SNUCABank(pa, cfg.LLC.LineBytes, cfg.LLC.NumBanks) != rmap.Bank(pa, 0) {
			target = a
			break
		}
	}
	pa := paddr(0, target)

	// Critical load: fills at the R-NUCA bank and sets the MBV bit.
	var cycle uint64
	s.Load(0, 0x40, target, true, cycle)
	if !s.TLB(0).MappingBit(pa) {
		t.Fatal("critical fill did not set the MBV bit")
	}

	// Evict the page's TLB entry: touch 8 more pages landing in the same
	// TLB set (64-entry, 8-way => 8 sets, so pages 32KB apart collide).
	setStride := uint64(s.TLB(0).Config().Entries/s.TLB(0).Config().Ways) * cfg.TLB.PageBytes
	for k := uint64(1); k <= 8; k++ {
		cycle += 1000
		s.Load(0, 0x80, target+k*setStride, false, cycle)
	}
	if s.TLB(0).Resident(pa) {
		t.Fatal("TLB entry survived the set pressure; cannot exercise the fallback")
	}

	// First re-access: fresh TLB entry, zero MBV -> S-NUCA probe misses,
	// fallback probe hits, and the bit must be re-learned.
	before := s.LLC().Stats()
	cycle += 1000
	s.Load(0, 0x40, target, false, cycle)
	mid := s.LLC().Stats()
	if got := mid.FallbackHits - before.FallbackHits; got != 1 {
		t.Fatalf("recovery access: fallback hits delta %d, want 1", got)
	}
	if !s.TLB(0).MappingBit(pa) {
		t.Error("fallback hit did not re-learn the MBV bit")
	}

	// Drop the private copies the recovery walk installed (as an L2
	// eviction would) so the next access reaches the LLC again; the TLB
	// entry — and the re-learned bit — stay resident.
	s.l1[0].Invalidate(pa)
	s.l2[0].Invalidate(pa)
	s.dir.Release(pa, 0)

	// Second re-access must take the single R-NUCA probe: no new fallback
	// probes anywhere in the walk.
	cycle += 1000
	s.Load(0, 0x40, target, false, cycle)
	after := s.LLC().Stats()
	if got := after.FallbackProbes - mid.FallbackProbes; got != 0 {
		t.Errorf("post-recovery access still pays %d fallback probe(s), want 0", got)
	}
	if after.ReadHits != mid.ReadHits+1 {
		t.Errorf("post-recovery access missed the LLC (hits %d -> %d)", mid.ReadHits, after.ReadHits)
	}
}
