package nuca

import (
	"testing"
	"testing/quick"

	"repro/internal/rram"
)

// smallLLC builds a 4-bank LLC (2x2 mesh) with 4KB banks for fast tests.
func smallLLC(p Policy) *LLC {
	cfg := Config{
		Policy: p, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64,
		MeshWidth: 2, MeshHeight: 2, BankLatency: 100, DirLatency: 20,
	}
	w := rram.MustNew(rram.Config{
		Banks: 4, FramesPerBank: 4096 / 64, Endurance: 1e11, ClockHz: 2.4e9, CapYears: 50,
	})
	return MustNew(cfg, w)
}

func TestNewValidation(t *testing.T) {
	w := rram.MustNew(rram.Config{Banks: 4, FramesPerBank: 64, Endurance: 1, ClockHz: 1, CapYears: 1})
	bad := []Config{
		{Policy: SNUCA, NumBanks: 3, BankBytes: 4096, Ways: 4, LineBytes: 64, MeshWidth: 3, MeshHeight: 1},
		{Policy: SNUCA, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64, MeshWidth: 4, MeshHeight: 4},
		{Policy: RNUCA, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64, MeshWidth: 1, MeshHeight: 4},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, w); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil wear must be rejected")
	}
	if _, err := New(DefaultConfig(), w); err == nil {
		t.Error("mismatched wear geometry must be rejected")
	}
}

func TestSNUCAAccessMissFillHit(t *testing.T) {
	l := smallLLC(SNUCA)
	addr := uint64(0x1000)
	res := l.Access(addr, 0, false, false)
	if res.Hit || res.NumProbes != 1 {
		t.Fatalf("cold access: %+v", res)
	}
	fr := l.Fill(addr, 0, false, false)
	if fr.Bank != SNUCABank(addr, 64, 4) {
		t.Errorf("fill bank %d, want S-NUCA bank %d", fr.Bank, SNUCABank(addr, 64, 4))
	}
	res = l.Access(addr, 3, false, false) // any core finds it in S-NUCA
	if !res.Hit || res.Bank != fr.Bank {
		t.Errorf("post-fill access: %+v", res)
	}
	if l.Wear().BankWrites(fr.Bank) != 1 {
		t.Error("fill must wear the bank")
	}
}

func TestWritebackHitWearsFrame(t *testing.T) {
	l := smallLLC(SNUCA)
	addr := uint64(0x2000)
	l.Fill(addr, 0, false, false)
	before := l.Wear().BankWrites(SNUCABank(addr, 64, 4))
	res := l.Access(addr, 0, false, true) // write-back arrives
	if !res.Hit {
		t.Fatal("write-back should hit")
	}
	after := l.Wear().BankWrites(SNUCABank(addr, 64, 4))
	if after != before+1 {
		t.Errorf("write-back hit must add one wear write: %d -> %d", before, after)
	}
	s := l.Stats()
	if s.Writebacks != 1 || s.WritebackHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReadHitDoesNotWear(t *testing.T) {
	l := smallLLC(SNUCA)
	addr := uint64(0x3000)
	l.Fill(addr, 0, false, false)
	b := SNUCABank(addr, 64, 4)
	before := l.Wear().BankWrites(b)
	l.Access(addr, 0, false, false)
	if l.Wear().BankWrites(b) != before {
		t.Error("read hits must not wear ReRAM")
	}
}

func TestPrivatePolicyUsesOwnBank(t *testing.T) {
	l := smallLLC(PrivateLLC)
	addr := uint64(0x4000)
	for core := 0; core < 4; core++ {
		// Give each core a distinct address so residency doesn't interfere.
		a := addr + uint64(core)*0x100000
		res := l.Access(a, core, false, false)
		if res.NumProbes != 1 || res.Probes[0] != core {
			t.Errorf("core %d probed %v", core, res.Probes[:res.NumProbes])
		}
		fr := l.Fill(a, core, false, false)
		if fr.Bank != core {
			t.Errorf("core %d filled bank %d", core, fr.Bank)
		}
	}
}

func TestNaiveDirectoryLookup(t *testing.T) {
	l := smallLLC(NaiveWL)
	addr := uint64(0x5000)
	res := l.Access(addr, 0, false, false)
	if res.Hit || res.NumProbes != 0 {
		t.Fatalf("directory should prove absence without probing: %+v", res)
	}
	fr := l.Fill(addr, 0, false, false)
	res = l.Access(addr, 2, false, false)
	if !res.Hit || res.Bank != fr.Bank || res.NumProbes != 1 {
		t.Errorf("directory lookup failed: %+v (filled bank %d)", res, fr.Bank)
	}
	if l.DirLatency() != 20 {
		t.Errorf("Naive must charge directory latency")
	}
	if smallLLC(SNUCA).DirLatency() != 0 {
		t.Errorf("non-Naive policies have no directory")
	}
}

func TestNaiveChoosesLeastWrittenBank(t *testing.T) {
	l := smallLLC(NaiveWL)
	// Pre-wear banks 0..2 with different write counts.
	l.Wear().RecordWrite(0, 0)
	l.Wear().RecordWrite(0, 1)
	l.Wear().RecordWrite(1, 0)
	l.Wear().RecordWrite(2, 0)
	// Bank 3 has zero writes: next fill must go there.
	fr := l.Fill(0x6000, 0, false, false)
	if fr.Bank != 3 {
		t.Errorf("fill bank %d, want least-written bank 3", fr.Bank)
	}
}

func TestNaivePerfectLeveling(t *testing.T) {
	l := smallLLC(NaiveWL)
	for i := uint64(0); i < 400; i++ {
		addr := 0x10000 + i*64
		if res := l.Access(addr, int(i%4), false, false); !res.Hit {
			l.Fill(addr, int(i%4), false, false)
		}
	}
	if imb := l.Wear().WriteImbalance(); imb != 1 {
		t.Errorf("Naive write imbalance %v, want exactly 1 (perfect leveling)", imb)
	}
}

// TestNaiveDirectoryTracksEvictions churns a small Naive LLC far past
// capacity and checks that the oracle Access consults agrees with the
// banks' actual contents for every line ever filled: a hit exactly when the
// line is resident, in the one bank holding it, and no line ever resident
// twice. The oracle searches the tag arrays, so this pins that the search,
// Fill's victim handling and the one-copy invariant stay consistent.
func TestNaiveDirectoryTracksEvictions(t *testing.T) {
	l := smallLLC(NaiveWL)
	const lines = 1000 // 4 banks x 64 frames = 256 resident at most
	addrOf := func(i uint64) uint64 { return 0x100000 + i*64 }
	filled := map[uint64]bool{}
	check := func(step int) {
		t.Helper()
		for i := range filled {
			addr := addrOf(i)
			banks := l.ResidentBanks(addr)
			if len(banks) > 1 {
				t.Fatalf("step %d: line %#x resident in banks %v", step, addr, banks)
			}
			res := l.Access(addr, int(i%4), false, i%3 == 0)
			if res.Hit != (len(banks) == 1) {
				t.Fatalf("step %d: line %#x: Access hit=%v, resident in %v", step, addr, res.Hit, banks)
			}
			if res.Hit && (res.Bank != banks[0] || res.NumProbes != 1 || res.Probes[0] != banks[0]) {
				t.Fatalf("step %d: line %#x: Access %+v, resident in bank %d", step, addr, res, banks[0])
			}
			if !res.Hit && res.NumProbes != 0 {
				t.Fatalf("step %d: line %#x: a proven miss probed %d banks", step, addr, res.NumProbes)
			}
		}
	}
	// Odd steps walk all lines out of order with a multiplicative stride;
	// even steps cycle a 64-line hot set. The churn so mixes hits,
	// write-back hits and evicting fills.
	for step := 0; step < 5000; step++ {
		i := uint64(step) * 7919 % lines
		if step%2 == 0 {
			i = uint64(step/2) % 64
		}
		addr := addrOf(i)
		if res := l.Access(addr, step%4, false, step%5 == 0); !res.Hit {
			l.Fill(addr, step%4, false, step%5 == 0)
			filled[i] = true
		}
		if step == 499 {
			if s := l.Stats(); s.Fills <= 256 || s.ReadHits == 0 || s.WritebackHits == 0 {
				t.Fatalf("churn did not exercise evictions and hits: %+v", s)
			}
		}
		if step%500 == 499 {
			check(step)
		}
	}
}

// divergentAddr finds an address whose S-NUCA and R-NUCA banks differ for
// core, or fails the test (on the 2x2 test mesh, a core whose RID+1 is a
// multiple of the cluster size has identical mappings for every address).
func divergentAddr(t *testing.T, l *LLC, core int) uint64 {
	t.Helper()
	for a := uint64(0); a < 64*256; a += 64 {
		if l.snucaBank(a) != l.rnucaBank(a, core) {
			return a
		}
	}
	t.Fatalf("no divergent address for core %d", core)
	return 0
}

func TestReNUCAPlacementByCriticality(t *testing.T) {
	l := smallLLC(ReNUCA)
	core := 1
	addr := divergentAddr(t, l, core)
	frNon := l.Fill(addr, core, false, false)
	if frNon.Bank != l.snucaBank(addr) {
		t.Errorf("non-critical fill went to bank %d, want S-NUCA %d", frNon.Bank, l.snucaBank(addr))
	}
	l2 := smallLLC(ReNUCA)
	frCrit := l2.Fill(addr, core, true, false)
	if frCrit.Bank != l2.rnucaBank(addr, core) {
		t.Errorf("critical fill went to bank %d, want R-NUCA %d", frCrit.Bank, l2.rnucaBank(addr, core))
	}
	s := l.Stats()
	if s.NonCriticalFills != 1 || s.CriticalFills != 0 {
		t.Errorf("fill criticality stats: %+v", s)
	}
}

func TestReNUCAFallbackProbeRecoversLostMapping(t *testing.T) {
	l := smallLLC(ReNUCA)
	core := 1
	addr := divergentAddr(t, l, core)
	// Line was filled critical (R-NUCA bank), but the MBV bit was lost:
	// the access arrives with critical=false, probes S-NUCA first, misses,
	// then falls back to the R-NUCA bank and hits.
	l.Fill(addr, core, true, false)
	res := l.Access(addr, core, false, false)
	if !res.Hit || res.NumProbes != 2 {
		t.Fatalf("fallback access: %+v", res)
	}
	if res.Bank != l.rnucaBank(addr, core) {
		t.Errorf("hit bank %d, want R-NUCA bank", res.Bank)
	}
	s := l.Stats()
	if s.FallbackProbes != 1 || s.FallbackHits != 1 {
		t.Errorf("fallback stats: %+v", s)
	}
}

func TestReNUCASingleProbeWhenBanksCoincide(t *testing.T) {
	l := smallLLC(ReNUCA)
	// Core 3 on the 2x2 mesh has RID 3, so (la+RID+1)&3 == la&3: its R-NUCA
	// bank always coincides with the S-NUCA bank.
	core := 3
	var addr uint64
	found := false
	for a := uint64(0); a < 64*64; a += 64 {
		if l.snucaBank(a) == l.rnucaBank(a, core) {
			addr, found = a, true
			break
		}
	}
	if !found {
		t.Skip("no coinciding address in range")
	}
	res := l.Access(addr, core, false, false)
	if res.NumProbes != 1 {
		t.Errorf("coinciding banks should produce one probe, got %d", res.NumProbes)
	}
}

func TestFillVictimReported(t *testing.T) {
	l := smallLLC(SNUCA)
	// Bank 0 has 16 sets x 4 ways; fill 5 lines into the same set of bank 0.
	// Line addresses that map to bank 0 and set 0: line multiples of 64 lines
	// (bank bits are line[1:0], set bits line[5:2] for this geometry).
	var fills []uint64
	for la := uint64(0); len(fills) < 5; la += 4 {
		addr := la * 64
		if l.snucaBank(addr) == 0 && l.banks[0].SetIndex(addr) == 0 {
			fills = append(fills, addr)
		}
	}
	var victims int
	for _, a := range fills {
		fr := l.Fill(a, 0, false, true) // dirty fills
		if fr.Victim.Valid {
			victims++
			if !fr.Victim.Dirty {
				t.Error("victim should be dirty")
			}
		}
	}
	if victims != 1 {
		t.Errorf("victims = %d, want exactly 1 (5 fills into 4 ways)", victims)
	}
}

// Property: under every policy, a line is resident in at most one bank, and
// Access-after-Fill always finds it while resident.
func TestSingleResidencyProperty(t *testing.T) {
	for _, p := range Policies() {
		p := p
		f := func(ops []uint16) bool {
			l := smallLLC(p)
			for _, op := range ops {
				addr := uint64(op%512) * 64
				core := int(op/512) % 4
				critical := op%3 == 0
				res := l.Access(addr, core, critical, op%5 == 0)
				if !res.Hit {
					// Do not double-fill a resident line: Access with a
					// different criticality could have probed the wrong
					// bank only for ReNUCA, where the fallback makes the
					// miss authoritative.
					if _, resident := l.Contains(addr); !resident {
						l.Fill(addr, core, critical, false)
					}
				}
				if banks := l.ResidentBanks(addr); len(banks) > 1 {
					t.Logf("policy %v: line %#x in banks %v", p, addr, banks)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("policy %v: %v", p, err)
		}
	}
}

func TestResetStats(t *testing.T) {
	l := smallLLC(SNUCA)
	l.Fill(0x1000, 0, false, false)
	l.Access(0x1000, 0, false, false)
	l.ResetStats()
	if l.Stats() != (Stats{}) {
		t.Error("aggregate stats not zeroed")
	}
	if l.Wear().TotalWrites() != 0 {
		t.Error("wear not zeroed")
	}
	if l.BankStats(l.snucaBank(0x1000)).Accesses() != 0 {
		t.Error("bank stats not zeroed")
	}
}
