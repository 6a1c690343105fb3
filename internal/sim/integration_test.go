package sim

import (
	"testing"

	"repro/internal/nuca"
)

// TestFixedWorkInvariantAcrossPolicies: every policy executes the same
// per-core instruction streams (generators are seeded independently of
// timing), so the committed work — loads and stores per core — must be
// identical across policies even though timing differs everywhere.
func TestFixedWorkInvariantAcrossPolicies(t *testing.T) {
	const warm, meas = 400, 2500
	type work struct{ committed, loads, stores uint64 }
	var ref []work
	for _, p := range nuca.Policies() {
		s := smallSystem(t, p)
		if _, err := s.RunMeasured(warm, meas); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		var ws []work
		for i := 0; i < s.Config().Cores; i++ {
			cs := s.Core(i).Stats()
			ws = append(ws, work{cs.Committed, cs.CommittedLoads, cs.CommittedStores})
		}
		if ref == nil {
			ref = ws
			continue
		}
		// Commit is in program order, so the first N committed instructions
		// (and their load/store mix) are identical across policies; only a
		// commit-width overshoot in the final cycle can differ.
		for i := range ws {
			if d := int64(ws[i].committed) - int64(ref[i].committed); d > 4 || d < -4 {
				t.Errorf("%v core %d: committed %d vs reference %d", p, i, ws[i].committed, ref[i].committed)
			}
			if d := int64(ws[i].loads) - int64(ref[i].loads); d > 4 || d < -4 {
				t.Errorf("%v core %d: committed loads %d vs reference %d", p, i, ws[i].loads, ref[i].loads)
			}
			if d := int64(ws[i].stores) - int64(ref[i].stores); d > 4 || d < -4 {
				t.Errorf("%v core %d: committed stores %d vs reference %d", p, i, ws[i].stores, ref[i].stores)
			}
		}
	}
}

// TestWearMatchesLLCWriteCounters: under every policy, wear-tracked writes
// must equal fills plus write-back hits — the two ways ReRAM cells get
// written.
func TestWearMatchesLLCWriteCounters(t *testing.T) {
	for _, p := range nuca.Policies() {
		s := smallSystem(t, p)
		if _, err := s.RunMeasured(400, 2500); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		st := s.LLC().Stats()
		if got, want := s.LLC().Wear().TotalWrites(), st.Fills+st.WritebackHits; got != want {
			t.Errorf("%v: wear %d != fills %d + wb hits %d", p, got, st.Fills, st.WritebackHits)
		}
	}
}

// TestCriticalitySplitConsistency: fills split into critical and
// non-critical must sum to total fills, and writes-by-criticality must sum
// to wear writes.
func TestCriticalitySplitConsistency(t *testing.T) {
	s := smallSystem(t, nuca.ReNUCA)
	if _, err := s.RunMeasured(400, 4000); err != nil {
		t.Fatal(err)
	}
	st := s.LLC().Stats()
	if st.CriticalFills+st.NonCriticalFills != st.Fills {
		t.Errorf("fill split %d+%d != %d", st.CriticalFills, st.NonCriticalFills, st.Fills)
	}
	if st.WritesCritical+st.WritesNonCritical != st.Fills+st.WritebackHits {
		t.Errorf("write split %d+%d != %d", st.WritesCritical, st.WritesNonCritical, st.Fills+st.WritebackHits)
	}
}

// TestWPKIConsistentWithWritebacks: the per-core WPKI reported in the
// Result must be derived from the same counter the LLC aggregates.
func TestWPKIConsistentWithWritebacks(t *testing.T) {
	s := smallSystem(t, nuca.SNUCA)
	res, err := s.RunMeasured(400, 4000)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i := 0; i < s.Config().Cores; i++ {
		total += s.Counters(i).Writebacks
	}
	// Per-core counters freeze at each core's target, so the LLC aggregate
	// (which keeps counting until the last core finishes) can only exceed
	// the frozen sum.
	if s.LLC().Stats().Writebacks < total {
		t.Errorf("LLC write-backs %d below frozen per-core sum %d",
			s.LLC().Stats().Writebacks, total)
	}
	for i, w := range res.WPKI {
		want := float64(s.Counters(i).Writebacks) / (float64(res.InstrPerCore) / 1000)
		if w != want {
			t.Errorf("core %d WPKI %v, want %v", i, w, want)
		}
	}
}

// TestMeasuredCyclesCoversAllCores: the reported window is the slowest
// core's, so every per-core IPC computed from it is internally consistent.
func TestMeasuredCyclesCoversAllCores(t *testing.T) {
	s := smallSystem(t, nuca.RNUCA)
	res, err := s.RunMeasured(400, 2500)
	if err != nil {
		t.Fatal(err)
	}
	for i, ipc := range res.IPC {
		window := float64(res.InstrPerCore) / ipc
		if window > float64(res.MeasuredCycles)+1 {
			t.Errorf("core %d window %v exceeds measured cycles %d", i, window, res.MeasuredCycles)
		}
	}
}

// TestSeedChangesOutcomeDeterministically: different seeds give different
// traffic; the same seed reproduces it exactly.
func TestSeedChangesOutcomeDeterministically(t *testing.T) {
	run := func(seed uint64) Result {
		cfg := DefaultConfig(nuca.ReNUCA)
		cfg.Seed = seed
		s := MustNew(cfg, testApps(16))
		res, err := s.RunMeasured(400, 2500)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1.MeasuredCycles != a2.MeasuredCycles {
		t.Error("same seed, different cycle counts")
	}
	if a1.MeasuredCycles == b.MeasuredCycles && a1.PerCore[0] == b.PerCore[0] {
		t.Error("different seeds produced identical outcomes (suspicious)")
	}
}

// TestEnergyCountsPopulated: Snapshot must carry consistent activity totals
// for the energy accountant.
func TestEnergyCountsPopulated(t *testing.T) {
	s := smallSystem(t, nuca.ReNUCA)
	res, err := s.RunMeasured(400, 4000)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Energy
	if e.Banks != 16 {
		t.Errorf("banks %d", e.Banks)
	}
	if e.Seconds <= 0 {
		t.Errorf("seconds %v", e.Seconds)
	}
	if e.LLCWrites != s.LLC().Wear().TotalWrites() {
		t.Errorf("energy LLC writes %d != wear %d", e.LLCWrites, s.LLC().Wear().TotalWrites())
	}
	if e.LLCReads == 0 || e.DRAMReads == 0 || e.NoCHops == 0 {
		t.Errorf("activity totals missing: %+v", e)
	}
	ds := s.DRAM().Stats()
	if e.DRAMReads != ds.Reads || e.DRAMWrites != ds.Writes {
		t.Error("DRAM totals inconsistent")
	}
}

// TestSingleTileMeshCharacterisation: the single-core configuration (1x1
// mesh, one bank) must run and never touch the network.
func TestSingleTileMeshCharacterisation(t *testing.T) {
	cfg := CharacterisationConfig()
	s := MustNew(cfg, testApps(1))
	if _, err := s.RunMeasured(1000, 8000); err != nil {
		t.Fatal(err)
	}
	if s.Mesh().Stats().Messages != 0 {
		t.Errorf("1x1 mesh carried %d messages; everything is local", s.Mesh().Stats().Messages)
	}
	if s.Counters(0).LLCMisses == 0 {
		t.Error("no LLC traffic at all")
	}
}

// TestEnergyLLCAccountingDisjoint: the energy totals must partition LLC
// traffic — LLCReads covers read probes only, LLCWrites the array writes
// (fills plus write-back hits, via the wear tracker). Snapshot used to sum
// whole-bank Accesses() into LLCReads, double-counting every write lookup
// that LLCWrites already charged.
func TestEnergyLLCAccountingDisjoint(t *testing.T) {
	// Tiny private caches so store traffic produces L2 dirty evictions —
	// and therefore LLC write lookups — within a short window. Four cores
	// narrow addresses to 38 bits, where these are the smallest caches a
	// frame's tag field allows.
	cfg := DefaultConfig(nuca.SNUCA)
	cfg.Cores = 4
	cfg.L1.SizeBytes = 4 << 10
	cfg.L2.SizeBytes = 16 << 10
	s, err := New(cfg, testApps(cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunMeasured(400, 4000)
	if err != nil {
		t.Fatal(err)
	}
	var reads, wbLookups uint64
	for b := 0; b < s.Config().LLC.NumBanks; b++ {
		bs := s.LLC().BankStats(b)
		reads += bs.ReadHits + bs.ReadMisses
		wbLookups += bs.WriteHits + bs.WriteMisses
	}
	if res.LLC.Writebacks == 0 || wbLookups == 0 {
		t.Fatal("window produced no write-backs; cannot exercise the double count")
	}
	if res.Energy.LLCReads != reads {
		t.Errorf("energy LLCReads %d != bank read probes %d", res.Energy.LLCReads, reads)
	}
	// Independent cross-check: S-NUCA probes exactly one bank per LLC read,
	// so bank read traffic must equal the per-core hit+miss counters.
	var coreReads uint64
	for i := 0; i < s.Config().Cores; i++ {
		ctr := s.Counters(i)
		coreReads += ctr.LLCHits + ctr.LLCMisses
	}
	if reads != coreReads {
		t.Errorf("bank read probes %d != per-core LLC hits+misses %d", reads, coreReads)
	}
	// The write side: every array write the wear tracker charged is a fill
	// or a write-back hit, and none of them may leak into LLCReads.
	if want := res.LLC.Fills + res.LLC.WritebackHits; res.Energy.LLCWrites != want {
		t.Errorf("energy LLCWrites %d != fills+writeback hits %d", res.Energy.LLCWrites, want)
	}
	if buggy := reads + wbLookups; res.Energy.LLCReads == buggy {
		t.Errorf("LLCReads %d still includes the %d write lookups", res.Energy.LLCReads, wbLookups)
	}
}
