package sim

import (
	"runtime"
	"testing"

	"repro/internal/nuca"
	"repro/internal/trace"
)

// TestSystemFootprint pins the bytes one Table I System allocates at
// construction. Its 524,288 LLC frames dominate: at 4 bytes a frame (one
// word holding the tag, the dirty bit and a per-set recency rank) they
// take 2 MiB (cache's TestFrameSize pins the frame). The ReRAM wear
// tracker keeps a 1-byte write count per frame, 512 KiB, with carries
// past 255 writes kept aside. The sixteen CPTs add 10 KiB each, a 2-byte
// index per table entry plus a store for the PCs in use. The whole System
// is about 3.1 MiB (DESIGN.md §6 gives the history of each array).
func TestSystemFootprint(t *testing.T) {
	cfg := DefaultConfig(nuca.ReNUCA)
	apps := testApps(cfg.Cores)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(cfg, apps)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	const limit = 3.2 * (1 << 20)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("sim.New allocated %d bytes (%.2f MiB)", got, float64(got)/(1<<20))
	if float64(got) > limit {
		t.Errorf("sim.New allocated %.2f MiB, want at most %.2f MiB", float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestNaiveRunGrowth pins the bytes a Table I Naive System allocates while
// it runs, on a mix of Table II's high-intensity apps whose LLC churn
// touches hundreds of thousands of lines. The Naive oracle locates lines
// by searching the bank tag arrays, and the inclusive shootdown finds a
// line's one possible holder from its address, so no table grows with the
// lines in flight: the run allocates about 16 KiB, the cores' dispatch
// bookkeeping reaching its working size plus the result snapshot. The MESI
// directory this replaced grew its line table to 2.0 MiB here. The 64 KiB
// limit leaves room for that bookkeeping to vary, and fails on any table
// that grows with the touched lines.
func TestNaiveRunGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 300k instructions per core on 16 cores")
	}
	high := []string{"mcf", "streamL", "lbm", "zeusmp", "bwaves", "libquantum", "milc", "omnetpp", "xalancbmk", "leslie3d"}
	cfg := DefaultConfig(nuca.NaiveWL)
	apps := make([]trace.Profile, cfg.Cores)
	for i := range apps {
		apps[i] = trace.MustProfile(high[i%len(high)])
	}
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.RunMeasured(100_000, 200_000); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 64 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("RunMeasured allocated %d bytes (%.2f MiB)", got, float64(got)/(1<<20))
	if got > limit {
		t.Errorf("RunMeasured allocated %d bytes, want at most %d", got, limit)
	}
}

// BenchmarkNewSystem measures building one Table I Re-NUCA System: the
// set-up cost every simulation pays before its first tick, dominated by
// zeroing the freshly allocated LLC frame array.
func BenchmarkNewSystem(b *testing.B) {
	cfg := DefaultConfig(nuca.ReNUCA)
	apps := benchApps(cfg.Cores)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewRejectsTagOverflow: a geometry whose tags at the System's 40-bit
// physical address width are wider than a frame stores must be a
// construction error, not a silent alias or a panic.
func TestNewRejectsTagOverflow(t *testing.T) {
	for i, mod := range []func(*Config){
		func(c *Config) { c.L1.SizeBytes = 256 },      // 1 set of 4 ways: 34 tag bits
		func(c *Config) { c.L2.SizeBytes = 512 },      // 1 set of 8 ways
		func(c *Config) { c.LLC.BankBytes = 1 << 10 }, // 1 set of 16 ways per bank
	} {
		cfg := DefaultConfig(nuca.SNUCA)
		mod(&cfg)
		if _, err := New(cfg, testApps(cfg.Cores)); err == nil {
			t.Errorf("case %d built; want a tag-width error", i)
		}
	}
	// One core narrows addresses to 36 bits, where an 8-set L2 leaves 27
	// tag bits, the most an 8-way frame stores: that must build, and a
	// 4-set L2 one bit over must not.
	cfg := CharacterisationConfig()
	cfg.L2.SizeBytes = 4 << 10
	if _, err := New(cfg, testApps(cfg.Cores)); err != nil {
		t.Errorf("1-core 8-set L2 at 36-bit addresses: %v", err)
	}
	cfg.L2.SizeBytes = 2 << 10
	if _, err := New(cfg, testApps(cfg.Cores)); err == nil {
		t.Error("1-core 4-set L2 at 36-bit addresses built; want a tag-width error")
	}
}

// TestNewBuildsPaperGeometries builds Table I and every geometry the paper
// sweeps (L2 128/256 KiB × LLC bank 1/2 MiB) at 16 cores, whose 40-bit
// addresses set the smallest caches a frame's tag field allows: L1 16 KiB,
// L2 64 KiB and LLC bank 256 KiB. Each of those builds, and half of it
// does not.
func TestNewBuildsPaperGeometries(t *testing.T) {
	for _, l2 := range []uint64{128 << 10, 256 << 10} {
		for _, bank := range []uint64{1 << 20, 2 << 20} {
			cfg := DefaultConfig(nuca.ReNUCA)
			cfg.L2.SizeBytes = l2
			cfg.LLC.BankBytes = bank
			if _, err := New(cfg, testApps(cfg.Cores)); err != nil {
				t.Errorf("L2 %d KiB, bank %d KiB: %v", l2>>10, bank>>10, err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		set  func(c *Config, bytes uint64)
		min  uint64
	}{
		{"L1", func(c *Config, n uint64) { c.L1.SizeBytes = n }, 16 << 10},
		{"L2", func(c *Config, n uint64) { c.L2.SizeBytes = n }, 64 << 10},
		{"LLC bank", func(c *Config, n uint64) { c.LLC.BankBytes = n }, 256 << 10},
	} {
		cfg := DefaultConfig(nuca.ReNUCA)
		tc.set(&cfg, tc.min)
		if _, err := New(cfg, testApps(cfg.Cores)); err != nil {
			t.Errorf("%s of %d KiB: %v", tc.name, tc.min>>10, err)
		}
		tc.set(&cfg, tc.min/2)
		if _, err := New(cfg, testApps(cfg.Cores)); err == nil {
			t.Errorf("%s of %d KiB built; want a tag-width error", tc.name, tc.min>>11)
		}
	}
}
