package sim

import (
	"runtime"
	"testing"

	"repro/internal/nuca"
	"repro/internal/trace"
)

// TestSystemFootprint pins the bytes one Table I System allocates at
// construction. Its 524,288 LLC frames dominate: at 8 bytes a frame the
// whole System is about 7.0 MiB, where 16-byte frames made it 12.3 MiB
// (cache's TestFrameSize pins the frame). The sixteen CPTs add 18 KiB
// each, a 4-byte index per table entry plus a store for the PCs in use;
// dense 64 KiB tables made the System 7.7 MiB.
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
	const limit = 7.25 * (1 << 20)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("sim.New allocated %d bytes (%.2f MiB)", got, float64(got)/(1<<20))
	if got > limit {
		t.Errorf("sim.New allocated %.2f MiB, want at most %.2f MiB", float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestNaiveRunGrowth pins the bytes a Table I Naive System allocates while
// it runs, on a mix of Table II's high-intensity apps whose LLC churn
// touches hundreds of thousands of lines. The Naive oracle locates lines
// by searching the bank tag arrays, so the run allocates no more than any
// other policy: 4.0 MiB at these windows, most of it the coherence
// directory's line table doubling to fit the lines the private caches
// hold (at most 16 × 4,096). A Go map for the directory allocated 6.7 MiB
// here; the limit sits near the midpoint.
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
	const limit = 5.5 * (1 << 20)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("RunMeasured allocated %d bytes (%.2f MiB)", got, float64(got)/(1<<20))
	if got > limit {
		t.Errorf("RunMeasured allocated %.2f MiB, want at most %.2f MiB", float64(got)/(1<<20), float64(limit)/(1<<20))
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
	// One core narrows addresses to 36 bits, where a 1-set L2 leaves 30
	// tag bits: that fits and must build.
	cfg := CharacterisationConfig()
	cfg.L2.SizeBytes = 512
	if _, err := New(cfg, testApps(cfg.Cores)); err != nil {
		t.Errorf("1-core 1-set L2 at 36-bit addresses: %v", err)
	}
}
