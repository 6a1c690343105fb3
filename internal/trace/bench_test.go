package trace

import "testing"

// BenchmarkTraceNext measures generating one dynamic instruction for three
// of Table II's apps: namd (compute-bound, few memory operations), mcf
// (pointer chasing) and lbm (streaming).
func BenchmarkTraceNext(b *testing.B) {
	for _, app := range []string{"namd", "mcf", "lbm"} {
		b.Run(app, func(b *testing.B) {
			g, err := NewAppGen(MustProfile(app), 1)
			if err != nil {
				b.Fatal(err)
			}
			var in Instr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next(&in)
			}
		})
	}
}
