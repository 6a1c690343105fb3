package cache

import "testing"

// benchAddrs returns a deterministic address stream over a working set of
// the given number of lines (64B apart), shuffled by a fixed-parameter LCG
// so consecutive probes do not walk sets in order.
func benchAddrs(n int, lines uint64) []uint64 {
	addrs := make([]uint64, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = (state % lines) * 64
	}
	return addrs
}

// BenchmarkCacheLookup measures the steady-state hit/miss probe cost of the
// private-L2 geometry (256KB, 8-way): the single hottest function of a
// simulation, called for every level on every memory operation.
func BenchmarkCacheLookup(b *testing.B) {
	c := MustNew(Config{Name: "bench", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, Latency: 5})
	// Working set twice the cache's line capacity: a stable mix of hits and
	// misses without Fill churn inside the timed loop.
	addrs := benchAddrs(8192, 2*c.Lines())
	for _, a := range addrs {
		if !c.Lookup(a, false) {
			c.Fill(a, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addrs[i&8191], i&7 == 0)
	}
}

// BenchmarkCacheFill measures the fill+evict cycle on an LLC-bank geometry
// (2MB, 16-way): every probe misses and displaces a line.
func BenchmarkCacheFill(b *testing.B) {
	c := MustNew(Config{Name: "bench", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, Latency: 100})
	addrs := benchAddrs(8192, 4*c.Lines())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&8191]
		if !c.Lookup(a, false) {
			c.Fill(a, false)
		}
	}
}

// TestLookupFrameDoesNotAllocate pins the hot probe path to zero heap
// allocations so a regression fails CI instead of silently slowing sweeps.
func TestLookupFrameDoesNotAllocate(t *testing.T) {
	c := MustNew(Config{Name: "alloc", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 2})
	addrs := benchAddrs(256, 2*c.Lines())
	for _, a := range addrs {
		if !c.Lookup(a, false) {
			c.Fill(a, false)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		c.LookupFrame(addrs[i&255], i&7 == 0)
		i++
	}); n != 0 {
		t.Errorf("LookupFrame allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a := addrs[i&255]
		if !c.Lookup(a, false) {
			c.Fill(a, false)
		}
		i++
	}); n != 0 {
		t.Errorf("Lookup+Fill allocates %v times per call, want 0", n)
	}
}
