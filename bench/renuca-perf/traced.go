package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traced is the layer-attribution run. It runs serially on this goroutine,
// so no other worker competes for the CPU caches, and for each traced unit:
//
//  1. runs core.RunUnit untraced for the reference report and core.unit_s;
//  2. drives the unit itself in an instrumented run — core.NewSystem, then
//     its own cpu.New cores with counted generators and a recording
//     MemSystem — and requires the reference's simulated stats exactly;
//  3. replays the generators alone (trace.ns_per_instr);
//  4. replays the recorded loads and stores into a fresh System alone
//     (sim.mem_ns_per_op), requiring the instrumented run's stats exactly;
//  5. charges the rest of the instrumented run's time to the core model,
//     the predictor and the scheduler (cpu.self_share);
//  6. folds the CPU samples of every unit's instrumented run by package
//     (pprof.<pkg>.pct); one profile spans the whole traced run and the
//     instrumented runs are told apart by a profiler label.
//
// Each replay runs without the other layers competing for the CPU caches,
// so the replay shares are lower bounds on each layer's in-situ cost.
func traced(cfg config, sp *spec) (report, error) {
	suites := sp.expand(cfg.seed, cfg.scale)
	d := newDetail(cfg, sp, suites)
	var t tally
	failed := 0
	us := sp.traceUnits(suites)
	exe, err := os.Executable()
	if err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	// The profile goes beside the binary: inside the build directory, never
	// in the source tree.
	path := filepath.Join(filepath.Dir(exe), "renuca-perf-trace.pprof")
	prof, err := os.Create(path)
	if err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	for _, u := range us {
		d.TracedUnits = append(d.TracedUnits, u.ID)
		if err := t.add(u); err != nil {
			failed++
			d.Failures = append(d.Failures, fmt.Sprintf("%s: %v", u.ID, err))
		}
	}
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	if t.pkgSamples, t.samples, err = foldProfile(path, stepLabel, "instrumented"); err != nil {
		return report{}, err
	}
	d.FailedFrac = float64(failed) / float64(len(us))
	return report{detail: d, outcome: outcome{
		Correct:   failed == 0,
		Attempted: len(us),
		Failed:    failed,
		Metrics:   t.metrics(),
	}}, nil
}

// stepLabel is the profiler label key that marks a traced run's step.
const stepLabel = "renuca-perf-step"

// tally sums host times (in seconds) and simulated counts over the traced
// units. Counts cover the measured window unless named otherwise.
type tally struct {
	units int

	unitS, instrumentedS, setupS, genS, memS float64
	allocBytes, gcs                          uint64
	ipc                                      float64 // summed reference MeanIPC

	instr    uint64 // committed, warmup + measured
	measured uint64 // committed in the measured window
	genCalls uint64 // generator Next calls, warmup + measured
	ops      uint64 // loads + stores, warmup + measured
	measOps  uint64
	ticks    uint64

	headBlockCycles                                          uint64
	predictions, predictedCritical, correct, incorrect       uint64
	conflicts                                                uint64
	tlbMisses, l1Misses, l2Misses                            uint64
	nucaReadHits, nucaReadMisses, nucaFills, nucaWritebacks  uint64
	fallbackProbes, fallbackHits, slipped                    uint64
	shootdowns, invalidations                                uint64
	hops, stallCycles                                        uint64
	dramReads, dramWrites, rowHits, rowAccesses, queueCycles uint64
	rramWrites                                               uint64

	pkgSamples map[string]int64
	samples    int64

	free [][]memOp // recording chunks reused across units
}

func (t *tally) add(u core.Unit) error {
	runtime.GC() // every unit starts from the same settled heap

	// 1. Reference.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := now()
	ref, err := core.RunUnit(u)
	unitS := secondsSince(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if err := sane(ref); err != nil {
		return err
	}

	// 2. Instrumented run, under the profiler label the fold selects.
	var dr *driven
	pprof.Do(context.Background(), pprof.Labels(stepLabel, "instrumented"), func(context.Context) {
		dr, err = drive(u, &t.free)
	})
	if dr != nil {
		defer dr.release()
	}
	if err != nil {
		return err
	}
	if err := dr.matches(ref); err != nil {
		return fmt.Errorf("instrumented run differs from core.RunUnit: %w", err)
	}

	// 3. Generator replay.
	genS, err := replayGenerators(u, dr.genCalls)
	if err != nil {
		return err
	}

	// 4. Hierarchy replay.
	memS, err := replayHierarchy(u, dr)
	if err != nil {
		return err
	}

	t.units++
	t.unitS += unitS
	t.instrumentedS += dr.totalS
	t.setupS += dr.setupS
	t.genS += genS
	t.memS += memS
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	t.gcs += uint64(m1.NumGC - m0.NumGC)
	t.ipc += ref.MeanIPC
	dr.count(t)
	return nil
}

// countingGen counts the instructions a core pulls from its generator.
type countingGen struct {
	g *trace.AppGen
	n uint64
}

func (c *countingGen) Name() string { return c.g.Name() }

func (c *countingGen) Next(in *trace.Instr) {
	c.n++
	c.g.Next(in)
}

// memOp is one recorded load or store; meta packs cycle<<8 | core<<2 |
// critical<<1 | store.
type memOp struct{ pc, addr, meta uint64 }

const opChunk = 1 << 16

// opLog holds one phase's operations in fixed-size chunks taken from a
// free list shared across units: a log of millions of operations never
// reallocates and copies, and after the first unit recording allocates
// nothing, so it does not inflate the profile's runtime share.
type opLog struct {
	chunks [][]memOp
	free   *[][]memOp
}

func (l *opLog) add(op memOp) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == opChunk {
		var c []memOp
		if f := *l.free; len(f) > 0 {
			c, *l.free = f[len(f)-1][:0], f[:len(f)-1]
		} else {
			c = make([]memOp, 0, opChunk)
		}
		l.chunks = append(l.chunks, c)
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, op)
}

// release returns the log's chunks to the free list.
func (l *opLog) release() {
	*l.free = append(*l.free, l.chunks...)
	l.chunks = nil
}

func (l *opLog) len() uint64 {
	if len(l.chunks) == 0 {
		return 0
	}
	return uint64(len(l.chunks)-1)*opChunk + uint64(len(l.chunks[len(l.chunks)-1]))
}

// replay issues the logged operations into s in their recorded order.
func (l *opLog) replay(s *sim.System) {
	for _, ch := range l.chunks {
		for _, op := range ch {
			core, crit, cycle := int(op.meta>>2&63), op.meta&2 != 0, op.meta>>8
			if op.meta&1 != 0 {
				s.Store(core, op.pc, op.addr, crit, cycle)
			} else {
				s.Load(core, op.pc, op.addr, crit, cycle)
			}
		}
	}
}

// recorder is the cores' cpu.MemSystem during the instrumented run: it logs
// every operation, then forwards it to the System.
type recorder struct {
	sys      *sim.System
	log      *opLog
	overflow bool // an operation did not fit memOp's packing
}

func (r *recorder) record(core int, pc, addr uint64, critical, store bool, cycle uint64) {
	if cycle >= 1<<56 || core >= 64 {
		r.overflow = true
	}
	meta := cycle<<8 | uint64(core)<<2
	if critical {
		meta |= 2
	}
	if store {
		meta |= 1
	}
	r.log.add(memOp{pc, addr, meta})
}

func (r *recorder) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	r.record(core, pc, addr, critical, false, cycle)
	return r.sys.Load(core, pc, addr, critical, cycle)
}

func (r *recorder) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	r.record(core, pc, addr, critical, true, cycle)
	return r.sys.Store(core, pc, addr, critical, cycle)
}

// driven is what the instrumented run produced.
type driven struct {
	sys            *sim.System
	cores          []*cpu.Core
	warm, meas     opLog
	genCalls       []uint64
	measuredCycles uint64
	instr          uint64 // committed, warmup + measured
	ticks          uint64 // measured window
	totalS, setupS float64
}

func (dr *driven) release() {
	dr.warm.release()
	dr.meas.release()
}

// drive runs u the way core.RunUnit does, with the bench's own cores,
// recording into chunks from free.
func drive(u core.Unit, free *[][]memOp) (*driven, error) {
	t0 := now()
	s, err := core.NewSystem(u.Opts)
	if err != nil {
		return nil, err
	}
	cfg := s.Config()
	dr := &driven{sys: s, warm: opLog{free: free}, meas: opLog{free: free}}
	rec := &recorder{sys: s, log: &dr.warm}
	gens := make([]*countingGen, cfg.Cores)
	for i := range gens {
		p, err := trace.ProfileFor(u.Opts.Apps[i])
		if err != nil {
			return nil, err
		}
		g, err := trace.NewAppGen(p, cfg.Seed+uint64(i)*0x9e37)
		if err != nil {
			return nil, err
		}
		cpt, err := predictor.New(cfg.CPT)
		if err != nil {
			return nil, err
		}
		gens[i] = &countingGen{g: g}
		c, err := cpu.New(i, cfg.CPU, gens[i], rec, cpt)
		if err != nil {
			return nil, err
		}
		dr.cores = append(dr.cores, c)
	}
	dr.setupS = secondsSince(t0)

	start, _, _, err := runPhase(dr.cores, 0, u.Opts.Warmup, cfg.MaxRunCycles)
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	for _, c := range dr.cores {
		dr.instr += c.Stats().Committed
		c.ResetStats()
	}
	s.ResetStats()
	rec.log = &dr.meas
	_, doneAt, ticks, err := runPhase(dr.cores, start, u.Opts.InstrPerCore, cfg.MaxRunCycles)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	dr.totalS = secondsSince(t0)
	dr.ticks = ticks

	if rec.overflow {
		return nil, fmt.Errorf("an operation's core or cycle does not fit the recording")
	}
	for _, at := range doneAt {
		if at > start && at-start > dr.measuredCycles {
			dr.measuredCycles = at - start
		}
	}
	for i, c := range dr.cores {
		dr.instr += c.Stats().Committed
		dr.genCalls = append(dr.genCalls, gens[i].n)
	}
	return dr, nil
}

// halted marks a core that reached its target and left the schedule.
const halted = ^uint64(0)

// runPhase runs the cores from cycle until each has committed n further
// instructions, in sim.System.Run's order: every pass ticks each due core
// in index order and retires cores that reach the target, then the clock
// jumps to the earliest wake. It returns the cycle the phase ended on,
// each core's done cycle and how many ticks it ran.
func runPhase(cores []*cpu.Core, cycle, n, maxCycles uint64) (end uint64, doneAt []uint64, ticks uint64, err error) {
	doneAt = make([]uint64, len(cores))
	if n == 0 {
		return cycle, doneAt, 0, nil
	}
	wake := make([]uint64, len(cores))
	frozen := make([]bool, len(cores))
	for i, c := range cores {
		c.SetTarget(n)
		wake[i] = cycle
	}
	start, remaining := cycle, len(cores)
	for {
		next := halted
		for i, c := range cores {
			w := wake[i]
			if w <= cycle {
				w = c.Tick(cycle)
				ticks++
				if !frozen[i] {
					if done, at := c.Done(); done {
						frozen[i], doneAt[i], w = true, at, halted
						remaining--
					}
				}
				wake[i] = w
			}
			if w < next {
				next = w
			}
		}
		if remaining == 0 {
			return cycle, doneAt, ticks, nil
		}
		if next > cycle {
			cycle = next
		}
		if cycle-start > maxCycles {
			return 0, nil, 0, fmt.Errorf("exceeded %d cycles", maxCycles)
		}
	}
}

// matches requires the reference report's simulated results exactly.
func (dr *driven) matches(ref core.Report) error {
	s := dr.sys
	ds := s.DRAM().Stats()
	switch {
	case dr.measuredCycles != ref.MeasuredCycles:
		return fmt.Errorf("measured cycles %d, want %d", dr.measuredCycles, ref.MeasuredCycles)
	case s.LLC().Stats() != ref.LLC:
		return fmt.Errorf("LLC stats %+v, want %+v", s.LLC().Stats(), ref.LLC)
	case s.Mesh().Stats().TotalHops != ref.Energy.NoCHops:
		return fmt.Errorf("NoC hops %d, want %d", s.Mesh().Stats().TotalHops, ref.Energy.NoCHops)
	case ds.Reads != ref.Energy.DRAMReads || ds.Writes != ref.Energy.DRAMWrites:
		return fmt.Errorf("DRAM reads/writes %d/%d, want %d/%d", ds.Reads, ds.Writes, ref.Energy.DRAMReads, ref.Energy.DRAMWrites)
	}
	return nil
}

// replayGenerators pulls each core's recorded instruction count from fresh
// generators, under one timer.
func replayGenerators(u core.Unit, calls []uint64) (float64, error) {
	seed := u.Opts.Seed
	gens := make([]*trace.AppGen, len(calls))
	for i := range gens {
		p, err := trace.ProfileFor(u.Opts.Apps[i])
		if err != nil {
			return 0, err
		}
		if gens[i], err = trace.NewAppGen(p, seed+uint64(i)*0x9e37); err != nil {
			return 0, err
		}
	}
	var in trace.Instr
	t0 := now()
	for i, g := range gens {
		for k := calls[i]; k > 0; k-- {
			g.Next(&in)
		}
	}
	return secondsSince(t0), nil
}

// replayHierarchy replays the instrumented run's operations into a fresh
// System, timing the warmup and measured phases (not the ResetStats
// between), and requires the instrumented run's hierarchy stats exactly.
func replayHierarchy(u core.Unit, dr *driven) (float64, error) {
	s, err := core.NewSystem(u.Opts)
	if err != nil {
		return 0, err
	}
	t0 := now()
	dr.warm.replay(s)
	warmS := secondsSince(t0)
	s.ResetStats()
	t1 := now()
	dr.meas.replay(s)
	measS := secondsSince(t1)

	want := dr.sys
	switch {
	case s.LLC().Stats() != want.LLC().Stats():
		return 0, fmt.Errorf("hierarchy replay LLC stats %+v, want %+v", s.LLC().Stats(), want.LLC().Stats())
	case s.Mesh().Stats() != want.Mesh().Stats():
		return 0, fmt.Errorf("hierarchy replay NoC stats %+v, want %+v", s.Mesh().Stats(), want.Mesh().Stats())
	case s.DRAM().Stats() != want.DRAM().Stats():
		return 0, fmt.Errorf("hierarchy replay DRAM stats %+v, want %+v", s.DRAM().Stats(), want.DRAM().Stats())
	}
	return warmS + measS, nil
}

// count adds the instrumented run's simulated counts to t.
func (dr *driven) count(t *tally) {
	s := dr.sys
	t.instr += dr.instr
	t.ticks += dr.ticks
	t.ops += dr.warm.len() + dr.meas.len()
	t.measOps += dr.meas.len()
	for i, c := range dr.cores {
		cs, ps := c.Stats(), c.Predictor().Stats()
		t.measured += cs.Committed
		t.genCalls += dr.genCalls[i]
		t.headBlockCycles += cs.HeadBlockCycles
		t.predictions += ps.Predictions
		t.predictedCritical += ps.PredictedCritical
		t.correct += ps.Correct
		t.incorrect += ps.Incorrect
		t.conflicts += ps.Conflicts
		ctr := s.Counters(i)
		t.tlbMisses += ctr.TLBMisses
		t.l1Misses += ctr.L1Misses
		t.l2Misses += ctr.L2Misses
	}
	ls := s.LLC().Stats()
	t.nucaReadHits += ls.ReadHits
	t.nucaReadMisses += ls.ReadMisses
	t.nucaFills += ls.Fills
	t.nucaWritebacks += ls.Writebacks
	t.fallbackProbes += ls.FallbackProbes
	t.fallbackHits += ls.FallbackHits
	t.slipped += ls.Queue.Slipped
	cs := s.Directory().Stats()
	t.shootdowns += cs.Shootdowns
	t.invalidations += cs.Invalidations
	ns := s.Mesh().Stats()
	t.hops += ns.TotalHops
	t.stallCycles += ns.StallCycles
	ds := s.DRAM().Stats()
	t.dramReads += ds.Reads
	t.dramWrites += ds.Writes
	t.rowHits += ds.RowHits
	t.rowAccesses += ds.RowHits + ds.RowMisses + ds.RowConflicts
	t.queueCycles += ds.QueueCycles
	t.rramWrites += s.LLC().Wear().TotalWrites()
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the tally into the per-layer metrics. "pki" is per 1000
// measured-window instructions; shares are of the instrumented run's host time.
func (t *tally) metrics() map[string]metric {
	ki := float64(t.measured) / 1000
	pki := func(n uint64) metric { return metric{ratio(float64(n), ki), "1/kinstr"} }
	f := func(v float64, unit string) metric { return metric{v, unit} }
	setupShare := ratio(t.setupS, t.instrumentedS)
	traceShare := ratio(t.genS, t.instrumentedS)
	memShare := ratio(t.memS, t.instrumentedS)
	selfShare := 1 - setupShare - traceShare - memShare
	units := float64(t.units)
	m := map[string]metric{
		"trace.ns_per_instr": f(ratio(t.genS*1e9, float64(t.genCalls)), "ns"),
		"trace.share":        f(traceShare, "ratio"),

		"cpu.self_share":            f(selfShare, "ratio"),
		"cpu.ns_per_instr":          f(ratio(selfShare*t.instrumentedS*1e9, float64(t.instr)), "ns"),
		"cpu.ticks_per_kinstr":      f(ratio(float64(t.ticks), ki), "1/kinstr"),
		"cpu.head_block_cycles_pki": pki(t.headBlockCycles),
		"cpu.ipc":                   f(ratio(t.ipc, units), "instr/cycle"),

		"predictor.accuracy":      f(ratio(float64(t.correct), float64(t.correct+t.incorrect)), "ratio"),
		"predictor.critical_frac": f(ratio(float64(t.predictedCritical), float64(t.predictions)), "ratio"),
		"predictor.conflict_pki":  pki(t.conflicts),

		"sim.mem_ns_per_op": f(ratio(t.memS*1e9, float64(t.ops)), "ns"),
		"sim.mem_share":     f(memShare, "ratio"),
		"sim.mem_ops_pki":   pki(t.measOps),

		"tlb.miss_pki":      pki(t.tlbMisses),
		"cache.l1_miss_pki": pki(t.l1Misses),
		"cache.l2_miss_pki": pki(t.l2Misses),

		"nuca.access_pki":         pki(t.nucaReadHits + t.nucaReadMisses + t.nucaWritebacks),
		"nuca.hit_rate":           f(ratio(float64(t.nucaReadHits), float64(t.nucaReadHits+t.nucaReadMisses)), "ratio"),
		"nuca.fill_pki":           pki(t.nucaFills),
		"nuca.writeback_pki":      pki(t.nucaWritebacks),
		"nuca.fallback_probe_pki": pki(t.fallbackProbes),
		"nuca.fallback_hit_rate":  f(ratio(float64(t.fallbackHits), float64(t.fallbackProbes)), "ratio"),
		"nuca.slipped_pki":        pki(t.slipped),

		"coherence.shootdown_pki":    pki(t.shootdowns),
		"coherence.invalidation_pki": pki(t.invalidations),

		"noc.hops_pki":         pki(t.hops),
		"noc.stall_cycles_pki": pki(t.stallCycles),

		"dram.access_pki":       pki(t.dramReads + t.dramWrites),
		"dram.row_hit_rate":     f(ratio(float64(t.rowHits), float64(t.rowAccesses)), "ratio"),
		"dram.queue_cycles_pki": pki(t.queueCycles),

		"rram.write_pki": pki(t.rramWrites),

		"core.unit_s":            f(ratio(t.unitS, units), "s"),
		"core.alloc_mb_per_unit": f(ratio(float64(t.allocBytes)/(1<<20), units), "MB"),
		"core.gc_per_unit":       f(ratio(float64(t.gcs), units), "count"),
		"pprof.samples":          f(float64(t.samples), "count"),
		"tracing.overhead_pct":   f(ratio(100*(t.instrumentedS-t.unitS), t.unitS), "%"),
	}
	for _, l := range profLayers {
		m["pprof."+l+".pct"] = f(ratio(100*float64(t.pkgSamples[l]), float64(t.samples)), "%")
	}
	return m
}
