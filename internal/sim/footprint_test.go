package sim

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/nuca"
)

// TestSystemFootprint pins the bytes one Table I System allocates at
// construction. Its 524,288 LLC frames dominate: at 8 bytes a frame the
// whole System is about 7.8 MiB, where 16-byte frames made it 12.3 MiB.
func TestSystemFootprint(t *testing.T) {
	if n := unsafe.Sizeof(make(cache.Backing, 1)[0]); n != 8 {
		t.Errorf("cache frame is %d bytes, want 8", n)
	}
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
	const limit = 8 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("sim.New allocated %d bytes (%.2f MiB)", got, float64(got)/(1<<20))
	if got > limit {
		t.Errorf("sim.New allocated %.2f MiB, want at most %.2f MiB", float64(got)/(1<<20), float64(limit)/(1<<20))
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
