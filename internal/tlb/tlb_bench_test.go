package tlb

import "testing"

// benchVaddrs returns a deterministic virtual-address stream spanning the
// given number of 4KB pages, scattered by a fixed-parameter LCG.
func benchVaddrs(n int, pages uint64) []uint64 {
	addrs := make([]uint64, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = (state%pages)*4096 | (state>>32)&0xFC0
	}
	return addrs
}

// BenchmarkTLBAccess measures the translate-or-refill cost of the paper's
// 64-entry enhanced TLB, consulted by every load and store before any
// cache: the fused Translate probe (translation plus MBV read) the walk
// performs, and the MBV update an LLC fill makes.
func BenchmarkTLBAccess(b *testing.B) {
	tb := MustNew(DefaultConfig())
	// ~2x the TLB's page capacity: steady mix of hits and refills.
	addrs := benchVaddrs(4096, 128)
	for _, a := range addrs {
		tb.Translate(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&4095]
		if _, mbv := tb.Translate(a); mbv {
			tb.SetMappingBit(a, false)
		}
	}
}

// TestAccessDoesNotAllocate pins the walk's TLB probe to zero heap
// allocations.
func TestAccessDoesNotAllocate(t *testing.T) {
	tb := MustNew(DefaultConfig())
	addrs := benchVaddrs(512, 128)
	for _, a := range addrs {
		tb.Translate(a)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tb.Translate(addrs[i&511])
		i++
	}); n != 0 {
		t.Errorf("Translate allocates %v times per call, want 0", n)
	}
}
