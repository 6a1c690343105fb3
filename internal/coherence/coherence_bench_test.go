package coherence

import "testing"

// BenchmarkDirectory measures the steady-state cost of the directory's hot
// cycle as the simulator drives it: acquire on LLC hit/fill, release on L2
// eviction, shootdown on LLC eviction, over a multi-programmed (unshared)
// line population like the evaluated workloads. Every line is tracked
// once before the timer starts, so the directory has reached its steady
// size and the timed loop allocates nothing.
func BenchmarkDirectory(b *testing.B) {
	d := MustNewDirectory(16)
	const lines = 1 << 14
	addrs := make([]uint64, lines)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = (state & (lines - 1)) << 6
	}
	for i, a := range addrs {
		d.ReadAcquire(a, i&15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(lines-1)]
		core := i & 15
		switch i & 3 {
		case 0:
			d.ReadAcquire(a, core)
		case 1:
			d.WriteAcquire(a, core)
		case 2:
			d.Release(a, core, i&7 == 1)
		default:
			d.Shootdown(a)
		}
	}
}
