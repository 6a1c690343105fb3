// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks — one per table/figure, as the
// repository contract requires. Each benchmark executes the corresponding
// experiment end to end and reports domain metrics (lifetimes, IPC deltas)
// through b.ReportMetric, so `go test -bench` doubles as the reproduction
// harness.
//
// Benchmarks default to reduced windows so a full -bench=. pass stays in
// minutes; scale up with the same environment knobs the cmd tools use
// (RENUCA_INSTR, RENUCA_WARMUP, RENUCA_CHAR_INSTR, RENUCA_CHAR_WARMUP,
// RENUCA_SEED and RENUCA_WORKERS).
// Because one experiment run is already an aggregate over many simulations,
// run with -benchtime=1x for a single regeneration.
package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// benchParams returns reduced default windows so the whole benchmark suite
// is tractable on one host CPU, with the RENUCA_* environment overrides
// applied exactly as renuca-bench applies them. A malformed knob fails the
// benchmark.
func benchParams(b *testing.B) experiments.Params {
	b.Helper()
	p, err := experiments.ParamsFromEnv(experiments.Params{
		InstrPerCore: 120_000,
		Warmup:       40_000,
		CharInstr:    600_000,
		CharWarmup:   150_000,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// runExperiment executes one registered experiment per benchmark iteration
// and reports the harness's throughput (sims/sec) and per-iteration
// wall-clock, so BENCH_*.json captures the perf trajectory of the parallel
// harness across PRs.
func runExperiment(b *testing.B, id string) *experiments.Runner {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var r *experiments.Runner
	start := time.Now() //lint:allow nondeterminism benchmark wall-clock for sims/sec reporting
	for i := 0; i < b.N; i++ {
		r = experiments.NewRunner(benchParams(b))
		if _, err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start) //lint:allow nondeterminism benchmark wall-clock for sims/sec reporting
	if sims := r.Sims(); sims > 0 && wall > 0 {
		b.ReportMetric(float64(sims)*float64(b.N)/wall.Seconds(), "sims/sec")
	}
	b.ReportMetric(wall.Seconds()/float64(b.N), "wallclock-sec")
	return r
}

// BenchmarkParallelSpeedup runs the "actual" variant's five-policy suite
// serially (Workers=1) and in parallel (one worker per CPU) and reports the
// wall-clock ratio. On a multi-core host the speedup approaches the core
// count (50 independent 16-core simulations); on one core it sits at ~1.
func BenchmarkParallelSpeedup(b *testing.B) {
	v := mustVariant(b, "actual")
	measure := func(workers int) (time.Duration, uint64) {
		p := benchParams(b)
		p.Workers = workers
		r := experiments.NewRunner(p)
		start := time.Now() //lint:allow nondeterminism speedup benchmark times the harness itself
		if _, err := r.Lifetime(v); err != nil {
			b.Fatal(err)
		}
		return time.Since(start), r.Sims() //lint:allow nondeterminism speedup benchmark times the harness itself
	}
	cpus := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		serial, sims := measure(1)
		parallel, _ := measure(cpus)
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
		b.ReportMetric(float64(cpus), "workers")
		b.ReportMetric(float64(sims)/serial.Seconds(), "serialSims/sec")
		b.ReportMetric(float64(sims)/parallel.Seconds(), "parallelSims/sec")
	}
}

func BenchmarkTable2(b *testing.B) {
	r := runExperiment(b, "table2")
	rows, _ := r.Table2()
	var wpki float64
	for _, row := range rows {
		wpki += row.WPKI
	}
	b.ReportMetric(wpki/float64(len(rows)), "meanWPKI")
}

func BenchmarkFigure2(b *testing.B) {
	runExperiment(b, "fig2")
}

func BenchmarkFigure3(b *testing.B) {
	r := runExperiment(b, "fig3")
	lr, _ := r.Lifetime(mustVariant(b, "actual"))
	b.ReportMetric(stats.CoeffVariation(lr.PerBankHMean["S-NUCA"]), "snucaCV")
	b.ReportMetric(stats.CoeffVariation(lr.PerBankHMean["Private"]), "privateCV")
}

func BenchmarkFigure4(b *testing.B) {
	r := runExperiment(b, "fig4")
	lr, _ := r.Lifetime(mustVariant(b, "actual"))
	b.ReportMetric(lr.MeanIPC["Re-NUCA"], "renucaIPC")
	b.ReportMetric(lr.HMean["Re-NUCA"], "renucaLifeY")
}

func BenchmarkFigure5(b *testing.B) {
	r := runExperiment(b, "fig5")
	rows, _ := r.Table2()
	var nc float64
	for _, row := range rows {
		nc += row.NonCriticalLoadPct
	}
	b.ReportMetric(nc/float64(len(rows)), "nonCritLoadPct")
}

func BenchmarkFigure7(b *testing.B) {
	r := runExperiment(b, "fig7")
	pts, _ := r.ThresholdSweep()
	b.ReportMetric(sweepAvg(pts, 3, func(p experiments.ThresholdPoint) float64 { return p.AccuracyPct }), "accuracyAt3pct")
}

func BenchmarkFigure8(b *testing.B) {
	r := runExperiment(b, "fig8")
	pts, _ := r.ThresholdSweep()
	b.ReportMetric(sweepAvg(pts, 10, func(p experiments.ThresholdPoint) float64 { return p.NonCriticalBlocksPct }), "nonCritBlocksAt10pct")
}

func BenchmarkFigure9(b *testing.B) {
	r := runExperiment(b, "fig9")
	pts, _ := r.ThresholdSweep()
	b.ReportMetric(sweepAvg(pts, 10, func(p experiments.ThresholdPoint) float64 { return p.WritesNonCriticalPct }), "nonCritWritesAt10pct")
}

func BenchmarkFigure11(b *testing.B) {
	r := runExperiment(b, "fig11")
	lr, _ := r.Lifetime(mustVariant(b, "actual"))
	b.ReportMetric(stats.Mean(lr.ImprovementVsSNUCA["Re-NUCA"]), "renucaIPCgainPct")
	b.ReportMetric(stats.Mean(lr.ImprovementVsSNUCA["R-NUCA"]), "rnucaIPCgainPct")
}

func BenchmarkFigure12(b *testing.B) {
	r := runExperiment(b, "fig12")
	lr, _ := r.Lifetime(mustVariant(b, "actual"))
	b.ReportMetric(lr.RawMin["Re-NUCA"], "renucaMinLifeY")
	b.ReportMetric(lr.RawMin["R-NUCA"], "rnucaMinLifeY")
}

func BenchmarkTable3(b *testing.B) {
	r := runExperiment(b, "table3")
	t3, _ := r.Table3()
	for _, row := range t3.Rows {
		if row.Variant == "actual" {
			b.ReportMetric(100*(row.RawMin["Re-NUCA"]-row.RawMin["R-NUCA"])/row.RawMin["R-NUCA"], "renucaVsRnucaPct")
		}
	}
}

func BenchmarkFigure13_14(b *testing.B) {
	r := runExperiment(b, "fig13")
	lr, _ := r.Lifetime(mustVariant(b, "l2-128"))
	b.ReportMetric(lr.RawMin["Re-NUCA"], "renucaMinLifeY")
}

func BenchmarkFigure15_16(b *testing.B) {
	r := runExperiment(b, "fig15")
	lr, _ := r.Lifetime(mustVariant(b, "l3-1m"))
	b.ReportMetric(lr.RawMin["Re-NUCA"], "renucaMinLifeY")
}

func BenchmarkFigure17_18(b *testing.B) {
	r := runExperiment(b, "fig17")
	lr, _ := r.Lifetime(mustVariant(b, "rob-168"))
	b.ReportMetric(lr.RawMin["Re-NUCA"], "renucaMinLifeY")
}

func BenchmarkAblationThreshold(b *testing.B) {
	r := runExperiment(b, "ablation")
	pts, _ := r.Ablation()
	if len(pts) > 0 {
		b.ReportMetric(pts[0].CriticalFillPct, "critFillPctAtX1")
		b.ReportMetric(pts[len(pts)-1].CriticalFillPct, "critFillPctAtX100")
	}
}

func mustVariant(b *testing.B, key string) experiments.Variant {
	b.Helper()
	v, err := experiments.VariantByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func sweepAvg(pts []experiments.ThresholdPoint, threshold float64, f func(experiments.ThresholdPoint) float64) float64 {
	var sum float64
	var n int
	for _, p := range pts {
		if p.ThresholdPct == threshold {
			sum += f(p)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func BenchmarkAblationRotation(b *testing.B) {
	r := runExperiment(b, "rotation")
	pts, _ := r.RotationAblation()
	if len(pts) == 2 {
		b.ReportMetric(pts[0].MinFirstFailure, "offFirstFailY")
		b.ReportMetric(pts[1].MinFirstFailure, "onFirstFailY")
	}
}

func BenchmarkAblationWriteLatency(b *testing.B) {
	r := runExperiment(b, "writelat")
	pts, _ := r.WriteLatencyAblation()
	for _, p := range pts {
		if p.WriteLatency == 400 && p.Policy == "Re-NUCA" {
			b.ReportMetric(p.MeanIPC, "renucaIPCat400")
		}
	}
}

func BenchmarkEnergyStudy(b *testing.B) {
	r := runExperiment(b, "energy")
	pts, _ := r.EnergyStudy()
	for _, p := range pts {
		if p.Policy == "Re-NUCA" {
			if p.Breakdown.Technology == "SRAM" {
				b.ReportMetric(p.Breakdown.Total(), "sramTotalMJ")
			} else {
				b.ReportMetric(p.Breakdown.Total(), "reramTotalMJ")
			}
		}
	}
}
