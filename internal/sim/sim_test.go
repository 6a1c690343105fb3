package sim

import (
	"testing"

	"repro/internal/nuca"
	"repro/internal/trace"
)

// testApps returns n application profiles cycling through a cheap mix.
func testApps(n int) []trace.Profile {
	names := []string{"hmmer", "mcf", "streamL", "namd"}
	var out []trace.Profile
	for i := 0; i < n; i++ {
		out = append(out, trace.MustProfile(names[i%len(names)]))
	}
	return out
}

func smallSystem(t *testing.T, policy nuca.Policy) *System {
	t.Helper()
	cfg := DefaultConfig(policy)
	s, err := New(cfg, testApps(cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(nuca.SNUCA)
	if _, err := New(cfg, testApps(3)); err == nil {
		t.Error("profile/core count mismatch must be rejected")
	}
	bad := cfg
	bad.Cores = 0
	if _, err := New(bad, nil); err == nil {
		t.Error("zero cores must be rejected")
	}
	bad = cfg
	bad.ClockHz = 0
	if _, err := New(bad, testApps(16)); err == nil {
		t.Error("zero clock must be rejected")
	}
	// The directory's sharer mask has 16 bits.
	bad = cfg
	bad.Cores = 17
	if _, err := New(bad, testApps(17)); err == nil {
		t.Error("17 cores must be rejected")
	}
	// The directory keys 64-byte lines.
	bad = cfg
	bad.LLC.LineBytes = 32
	if _, err := New(bad, testApps(16)); err == nil {
		t.Error("32-byte LLC lines must be rejected")
	}
}

// TestStateDimsRejectsBadGeometry pins that construction rejects a bad
// geometry before it allocates any per-core state, and that a valid
// characterisation config yields every per-core and shared part.
func TestStateDimsRejectsBadGeometry(t *testing.T) {
	cfg := CharacterisationConfig()
	cfg.Cores = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = CharacterisationConfig()
	cfg.L1.Ways = 0
	if _, err := New(cfg, testApps(cfg.Cores)); err == nil {
		t.Error("zero-way L1 accepted")
	}
	cfg = CharacterisationConfig()
	s, err := New(cfg, testApps(cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.l1) != cfg.Cores || len(s.l2) != cfg.Cores || len(s.tlbs) != cfg.Cores ||
		s.llc == nil || s.mem == nil || s.wear == nil {
		t.Errorf("degenerate system for a valid config: %d L1s, %d L2s, %d TLBs", len(s.l1), len(s.l2), len(s.tlbs))
	}
}

// TestRunExceedsMaxRunCycles drives a run into the safety cycle bound: Run
// must stop with the bound's error text, and RunMeasured must attribute
// it to the warmup phase it tripped in.
func TestRunExceedsMaxRunCycles(t *testing.T) {
	const want = "sim: exceeded 64 cycles without reaching 1000 instructions per core"
	build := func() *System {
		cfg := CharacterisationConfig()
		cfg.MaxRunCycles = 64
		return MustNew(cfg, []trace.Profile{trace.MustProfile("mcf")})
	}
	if err := build().Run(1_000); err == nil || err.Error() != want {
		t.Errorf("Run error %v, want %q", err, want)
	}
	if _, err := build().RunMeasured(1_000, 5_000); err == nil || err.Error() != "warmup: "+want {
		t.Errorf("RunMeasured error %v, want %q", err, "warmup: "+want)
	}
}

func TestCharacterisationRunCompletes(t *testing.T) {
	cfg := CharacterisationConfig()
	s, err := New(cfg, []trace.Profile{trace.MustProfile("hmmer")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunMeasured(2000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC[0] <= 0 || res.IPC[0] > 4 {
		t.Errorf("IPC %v out of (0,4]", res.IPC[0])
	}
	if res.MeasuredCycles == 0 {
		t.Error("no cycles measured")
	}
	c := s.Counters(0)
	if c.Loads == 0 || c.Stores == 0 {
		t.Errorf("no memory traffic: %+v", c)
	}
}

func TestMemoryBoundAppSlowerThanComputeBound(t *testing.T) {
	run := func(app string) float64 {
		cfg := CharacterisationConfig()
		s := MustNew(cfg, []trace.Profile{trace.MustProfile(app)})
		res, err := s.RunMeasured(2000, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC[0]
	}
	mcf, hmmer := run("mcf"), run("hmmer")
	if mcf >= hmmer {
		t.Errorf("mcf IPC %v should be well below hmmer IPC %v", mcf, hmmer)
	}
	if mcf > 0.5 {
		t.Errorf("mcf IPC %v, want deeply memory-bound (<0.5)", mcf)
	}
	if hmmer < 1.0 {
		t.Errorf("hmmer IPC %v, want compute-bound (>1)", hmmer)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := CharacterisationConfig()
		s := MustNew(cfg, []trace.Profile{trace.MustProfile("soplex")})
		res, err := s.RunMeasured(1000, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeasuredCycles != b.MeasuredCycles || a.IPC[0] != b.IPC[0] {
		t.Errorf("non-deterministic: %v/%v vs %v/%v cycles/IPC",
			a.MeasuredCycles, a.IPC[0], b.MeasuredCycles, b.IPC[0])
	}
	if a.PerCore[0] != b.PerCore[0] {
		t.Errorf("non-deterministic counters: %+v vs %+v", a.PerCore[0], b.PerCore[0])
	}
}

func TestAllPoliciesRunSmallWindow(t *testing.T) {
	for _, p := range nuca.Policies() {
		s := smallSystem(t, p)
		res, err := s.RunMeasured(500, 2000)
		if err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
		if res.Policy != p.String() {
			t.Errorf("result policy %q, want %q", res.Policy, p)
		}
		for i, ipc := range res.IPC {
			if ipc <= 0 || ipc > 4 {
				t.Errorf("policy %v core %d IPC %v out of range", p, i, ipc)
			}
		}
		if len(res.BankLifetimes) != 16 {
			t.Errorf("policy %v: %d bank lifetimes", p, len(res.BankLifetimes))
		}
		for b, l := range res.BankLifetimes {
			if l <= 0 || l > 50 {
				t.Errorf("policy %v bank %d lifetime %v out of (0,50]", p, b, l)
			}
		}
		if res.MinLifetime <= 0 {
			t.Errorf("policy %v min lifetime %v", p, res.MinLifetime)
		}
	}
}

func TestLLCWritesAccountedToWear(t *testing.T) {
	s := smallSystem(t, nuca.SNUCA)
	if _, err := s.RunMeasured(500, 3000); err != nil {
		t.Fatal(err)
	}
	llcStats := s.LLC().Stats()
	wearWrites := s.LLC().Wear().TotalWrites()
	expected := llcStats.Fills + llcStats.WritebackHits
	if wearWrites != expected {
		t.Errorf("wear writes %d != fills %d + write-back hits %d",
			wearWrites, llcStats.Fills, llcStats.WritebackHits)
	}
	if wearWrites == 0 {
		t.Error("no LLC writes recorded at all")
	}
}

func TestNaivePerfectlyLevels(t *testing.T) {
	s := smallSystem(t, nuca.NaiveWL)
	res, err := s.RunMeasured(500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteImbalance > 1.05 {
		t.Errorf("Naive write imbalance %v, want ~1 (perfect leveling)", res.WriteImbalance)
	}
}

func TestPrivateMoreImbalancedThanSNUCA(t *testing.T) {
	imb := func(p nuca.Policy) float64 {
		s := smallSystem(t, p)
		res, err := s.RunMeasured(500, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return res.WriteImbalance
	}
	sn, pr := imb(nuca.SNUCA), imb(nuca.PrivateLLC)
	if pr <= sn {
		t.Errorf("Private imbalance %v should exceed S-NUCA %v", pr, sn)
	}
}

func TestReNUCAMBVConsistency(t *testing.T) {
	s := smallSystem(t, nuca.ReNUCA)
	if _, err := s.RunMeasured(500, 4000); err != nil {
		t.Fatal(err)
	}
	llcStats := s.LLC().Stats()
	if llcStats.Fills == 0 {
		t.Fatal("no LLC fills")
	}
	// The MBV must route nearly all hits to the right bank on the first
	// probe: fallback hits only happen when a TLB eviction lost mapping
	// bits, which is rare. (Fallback *probes* are common by design — every
	// true miss checks both candidate banks before going to memory.)
	hits := llcStats.ReadHits + llcStats.WritebackHits
	if hits > 0 && llcStats.FallbackHits > hits/5 {
		t.Errorf("fallback hits %d out of %d hits: MBV is not doing its job",
			llcStats.FallbackHits, hits)
	}
}

func TestCountersFreezeAtTarget(t *testing.T) {
	s := smallSystem(t, nuca.SNUCA)
	if _, err := s.RunMeasured(200, 2000); err != nil {
		t.Fatal(err)
	}
	// After the run, counters must equal the frozen snapshots.
	for i := 0; i < s.Config().Cores; i++ {
		if !s.isFrozen[i] {
			t.Fatalf("core %d never froze", i)
		}
	}
}

func TestRunZeroInstrIsNoop(t *testing.T) {
	s := smallSystem(t, nuca.SNUCA)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Cycle() != 0 {
		t.Error("zero-instruction run advanced time")
	}
}

func TestInclusionInvariant(t *testing.T) {
	// Sample addresses from a core's generator regions: any line in L2 must
	// be in the LLC (inclusive hierarchy via shootdowns).
	s := smallSystem(t, nuca.SNUCA)
	if _, err := s.RunMeasured(500, 3000); err != nil {
		t.Fatal(err)
	}
	checked, violations := 0, 0
	for core := 0; core < s.Config().Cores; core++ {
		for la := uint64(0); la < 1<<14; la += 64 {
			pa := paddr(core, (1<<30)+la)
			if s.l2[core].Peek(pa) {
				checked++
				if _, ok := s.LLC().Contains(pa); !ok {
					violations++
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no sampled lines resident in L2")
	}
	if violations > 0 {
		t.Errorf("%d/%d L2-resident lines missing from LLC (inclusion broken)", violations, checked)
	}
}

// TestPaddrPreservesOwner pins the ownership invariant the MBV bookkeeping
// depends on: coreOf must recover the issuing core from any physical
// address paddr can produce. The per-core scatter adds up to
// 15 x 0x12D687 lines to the line number, so application addresses within
// ~1.2GB of the 2^36 per-core window top used to carry into the embedded
// core-ID field; handleLLCVictim would then clear the MBV bit in the wrong
// core's TLB. The addresses below sit in that carry region and fail
// without the line-field mask.
func TestPaddrPreservesOwner(t *testing.T) {
	s := &System{cfg: Config{Cores: 16}}
	addrs := []uint64{
		0,
		4096,
		1 << 30,
		1<<coreAddrShift - 64,             // top line of the per-core window
		1<<coreAddrShift - 0x12D687*64,    // enters the carry region for core 1+
		1<<coreAddrShift - 15*0x12D687*64, // carry region boundary for core 15
		1<<coreAddrShift - 1,              // non-line-aligned top byte
	}
	for core := 0; core < 16; core++ {
		for _, a := range addrs {
			pa := paddr(core, a)
			if got := s.coreOf(pa); got != core {
				t.Errorf("coreOf(paddr(%d, %#x)) = %d, want %d", core, a, got, core)
			}
			if pa&63 != a&63 {
				t.Errorf("paddr(%d, %#x) dropped the line offset: %#x", core, a, pa)
			}
		}
	}
}

// TestPaddrScatterStaysDisjoint checks the scatter still separates cores'
// identically-laid-out hot regions (the reason paddr exists at all).
func TestPaddrScatterStaysDisjoint(t *testing.T) {
	seen := map[uint64]int{}
	for core := 0; core < 16; core++ {
		for a := uint64(0); a < 1<<16; a += 64 {
			pa := paddr(core, a)
			if prev, dup := seen[pa]; dup {
				t.Fatalf("paddr collision: cores %d and %d both map to %#x", prev, core, pa)
			}
			seen[pa] = core
		}
	}
}

// TestSnapshotNeverArmedCoreExcluded: a core whose doneAt is still 0 (it
// never reached a measurement target) must be excluded from the
// MeasuredCycles/MeanIPC aggregation rather than contributing a fabricated
// 1-cycle window — the old fallback reported instrPerCore instructions in
// one cycle, an outlier that dominated MeanIPC, and underflowed
// MeasuredCycles when no core had armed after a warmed-up reset.
func TestSnapshotNeverArmedCoreExcluded(t *testing.T) {
	s := smallSystem(t, nuca.ReNUCA)
	if err := s.Run(2000); err != nil { // warm up so measureStart > 0
		t.Fatal(err)
	}
	s.ResetStats()

	// No measured Run: every core is unarmed.
	res := s.Snapshot(1000)
	if res.MeanIPC != 0 {
		t.Errorf("MeanIPC with no armed core = %v, want 0", res.MeanIPC)
	}
	if res.MeasuredCycles != 1 {
		t.Errorf("MeasuredCycles with no armed core = %d, want degenerate 1 (not a uint64 underflow)", res.MeasuredCycles)
	}
	for i, ipc := range res.IPC {
		if ipc != 0 {
			t.Errorf("core %d IPC = %v, want 0 for a never-armed core", i, ipc)
		}
	}

	// A real measured window afterwards still reports normally.
	if err := s.Run(3000); err != nil {
		t.Fatal(err)
	}
	res = s.Snapshot(3000)
	if res.MeanIPC <= 0 || res.MeanIPC > 4 {
		t.Errorf("armed MeanIPC %v out of (0,4]", res.MeanIPC)
	}
	if res.MeasuredCycles <= 1 {
		t.Errorf("armed MeasuredCycles %d, want > 1", res.MeasuredCycles)
	}
}
