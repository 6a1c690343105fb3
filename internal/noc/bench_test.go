package noc

import "testing"

// BenchmarkMeshTraverse measures routing one message over Table I's 4x4
// mesh between random tile pairs, for control (one-cycle link occupancy)
// and data (four-cycle) messages. A message departs every two cycles, so
// links are often still reserved and the contention path runs too.
func BenchmarkMeshTraverse(b *testing.B) {
	pairs := make([][2]int, 4096)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range pairs {
		state = state*6364136223846793005 + 1442695040888963407
		pairs[i] = [2]int{int(state >> 33 % 16), int(state >> 45 % 16)}
	}
	for _, tc := range []struct {
		name     string
		traverse func(m *Mesh, from, to int, start uint64) uint64
	}{
		{"ctrl", (*Mesh).CtrlTraverse},
		{"data", (*Mesh).DataTraverse},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNew(DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i&4095]
				tc.traverse(m, p[0], p[1], 2*uint64(i))
			}
		})
	}
}
