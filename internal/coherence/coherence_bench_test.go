package coherence

import (
	"fmt"
	"testing"
)

// BenchmarkDirectory measures the steady-state cost of the directory's hot
// cycle as the simulator drives it: acquire on LLC hit/fill, release on L2
// eviction, shootdown on LLC eviction, over a multi-programmed (unshared)
// line population like the evaluated workloads. The low bits of an LCG
// run through every value once per period, so the address stream visits
// each line of the range once per pass. Every line is tracked once before
// the timer starts, so the directory has reached its steady size and the
// timed loop allocates nothing. 16,384 lines leave the
// table at 32,768 slots; 65,536 lines put it at 131,072 slots, the ceiling
// a Table I System's private caches reach on memory-bound workloads.
func BenchmarkDirectory(b *testing.B) {
	for _, lines := range []int{1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			benchDirectory(b, lines)
		})
	}
}

// benchDirectory runs BenchmarkDirectory's cycle over lines lines, a power
// of two.
func benchDirectory(b *testing.B, lines int) {
	d := MustNewDirectory(16)
	mask := uint64(lines - 1)
	addrs := make([]uint64, lines)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = (state & mask) << 6
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
			d.Release(a, core)
		default:
			d.Shootdown(a)
		}
	}
}
