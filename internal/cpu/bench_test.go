package cpu

import (
	"testing"

	"repro/internal/predictor"
	"repro/internal/trace"
)

// stubMem is a fixed-latency MemSystem: every load returns its data
// loadLat cycles after issue and every store is accepted in two cycles.
type stubMem struct{ loadLat uint64 }

func (m stubMem) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	return cycle + m.loadLat
}

func (m stubMem) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	return cycle + 2
}

// BenchmarkCoreTick measures the core model alone: one Table I core with
// its criticality predictor runs mcf's generated stream against stubMem,
// so the cost is Tick's issue, commit and dispatch, the CPT probe and
// trace generation, with no memory hierarchy. One op is one committed
// instruction. The last tick can commit a few past b.N, so ns/instr
// divides by the instructions actually committed.
func BenchmarkCoreTick(b *testing.B) {
	gen, err := trace.NewAppGen(trace.MustProfile("mcf"), 1)
	if err != nil {
		b.Fatal(err)
	}
	c := MustNew(0, DefaultConfig(), gen, stubMem{loadLat: 20}, predictor.MustNew(predictor.DefaultConfig()))
	var cyc uint64
	tick := func(until uint64) {
		for c.stats.Committed < until {
			if next := c.Tick(cyc); next > cyc {
				cyc = next
			} else {
				cyc++
			}
		}
	}
	tick(100_000) // fill the ROB and teach the CPT the app's load PCs
	start := c.stats.Committed
	b.ReportAllocs()
	b.ResetTimer()
	tick(start + uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.stats.Committed-start), "ns/instr")
}
