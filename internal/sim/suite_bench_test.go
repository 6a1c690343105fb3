package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/workload"
)

// suiteBenchUnits builds the fixed 20-unit throughput workload: all five
// policies over four standard workloads at the CI smoke windows, seeds
// fully derived up front like the production suite path.
func suiteBenchUnits(b *testing.B) []core.Unit {
	b.Helper()
	wls := workload.Standard(16)[:4]
	var units []core.Unit
	for _, p := range core.Policies() {
		o := core.DefaultOptions(p)
		o.InstrPerCore = 40_000
		o.Warmup = 15_000
		units = append(units, core.SuiteUnits("bench", o, wls)...)
	}
	return units
}

// BenchmarkSuiteThroughput measures whole-suite execution — the metric the
// harness optimises, in units/sec — one unit at a time on one worker (the
// serial floor) and per-unit pool tasks across all CPUs. One op is one full
// 20-unit suite; the units/sec metric is what EXPERIMENTS.md's throughput
// table quotes.
func BenchmarkSuiteThroughput(b *testing.B) {
	units := suiteBenchUnits(b)
	run := func(b *testing.B, workers int) {
		b.Helper()
		pl := pool.New(workers)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunUnitsOn(pl, units); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N*len(units))/secs, "units/sec")
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pool", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}
