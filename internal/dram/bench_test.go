package dram

import "testing"

// BenchmarkDRAMAccess measures one request to Table I's DDR3 memory. Half
// the requests walk a sequential stream, which mostly hits open rows; the
// rest go to random lines of a 1 GiB footprint and mostly miss or
// conflict. One request in four is a posted write, and a request arrives
// every ten cycles, so banks and buses are often still busy.
func BenchmarkDRAMAccess(b *testing.B) {
	m := MustNew(DefaultConfig())
	addrs := make([]uint64, 4096)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = (state >> 40) * 64 // random line below 1 GiB
		if i&1 == 0 {
			addrs[i] = uint64(i) * 32 // stream: one new line per pair
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(addrs[i&4095], 10*uint64(i), i&3 == 3)
	}
}
