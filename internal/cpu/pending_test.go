package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// orderMem records the cycle at which each memory operation was issued to
// the hierarchy, to verify causal ordering of deferred walks.
type orderMem struct {
	loadLat uint64
	issues  []uint64 // issue cycles in call order
	addrs   []uint64
}

func (m *orderMem) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	m.issues = append(m.issues, cycle)
	m.addrs = append(m.addrs, addr)
	return cycle + m.loadLat
}

func (m *orderMem) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	m.issues = append(m.issues, cycle)
	m.addrs = append(m.addrs, addr)
	return cycle + 1
}

func TestDeferredLoadIssuesAtOperandReady(t *testing.T) {
	// load A (100 cycles), then a dependent load B: B's walk must be
	// issued at A's completion, not at dispatch.
	instrs := []trace.Instr{
		{Kind: trace.Load, PC: 1, Addr: 0x100},
		{Kind: trace.Load, PC: 2, Addr: 0x200, DepDist: 1},
	}
	for i := 0; i < 50; i++ {
		instrs = append(instrs, trace.Instr{Kind: trace.ALU, PC: 3})
	}
	m := &orderMem{loadLat: 100}
	c := MustNewScripted(0, DefaultConfig(), m, instrs)
	run(c, 500)
	if len(m.issues) < 2 {
		t.Fatalf("only %d memory issues", len(m.issues))
	}
	if m.issues[0] != 1 {
		t.Errorf("load A issued at %d, want 1", m.issues[0])
	}
	// A completes at 101; B must be issued at >= 101, not at dispatch (~0).
	if m.issues[1] < 101 {
		t.Errorf("dependent load issued at %d, before its operand existed (A completes at 101)", m.issues[1])
	}
	if m.issues[1] > 110 {
		t.Errorf("dependent load issued at %d, long after its operand arrived", m.issues[1])
	}
}

// MustNewScripted builds a core over a fixed instruction script.
func MustNewScripted(id int, cfg Config, mem MemSystem, instrs []trace.Instr) *Core {
	return MustNew(id, cfg, &scriptGen{instrs: instrs}, mem, nil)
}

func TestPendingChainResolvesTransitively(t *testing.T) {
	// A -> B -> C chained loads: each must issue only after its producer.
	instrs := []trace.Instr{
		{Kind: trace.Load, PC: 1, Addr: 0x100},
		{Kind: trace.Load, PC: 2, Addr: 0x200, DepDist: 1},
		{Kind: trace.Load, PC: 3, Addr: 0x300, DepDist: 1},
	}
	for i := 0; i < 50; i++ {
		instrs = append(instrs, trace.Instr{Kind: trace.ALU, PC: 4})
	}
	m := &orderMem{loadLat: 50}
	c := MustNewScripted(0, DefaultConfig(), m, instrs)
	run(c, 1000)
	if len(m.issues) != 3 {
		t.Fatalf("%d memory issues, want 3", len(m.issues))
	}
	for i := 1; i < 3; i++ {
		if m.issues[i] < m.issues[i-1]+50 {
			t.Errorf("chain link %d issued at %d, producer completed at %d",
				i, m.issues[i], m.issues[i-1]+50)
		}
	}
}

func TestDeferredALUCompletesAfterProducer(t *testing.T) {
	// An ALU consuming a pending load's result must not commit before the
	// load returns.
	instrs := []trace.Instr{
		{Kind: trace.Load, PC: 1, Addr: 0x100},
		{Kind: trace.ALU, PC: 2, DepDist: 1},
	}
	m := &orderMem{loadLat: 200}
	c := MustNewScripted(0, DefaultConfig(), m, instrs)
	var committedAt uint64
	for cyc := uint64(0); cyc < 400; {
		next := c.Tick(cyc)
		if c.Stats().Committed >= 2 && committedAt == 0 {
			committedAt = cyc
		}
		if next <= cyc {
			cyc++
		} else {
			cyc = next
		}
	}
	if committedAt == 0 {
		t.Fatal("pair never committed")
	}
	if committedAt < 201 {
		t.Errorf("dependent ALU committed at %d, before load data at 201", committedAt)
	}
}

func TestPendingStoreDirtyAfterProducer(t *testing.T) {
	// A store consuming a pending load (the paired RMW store) must walk
	// only after the load completes.
	instrs := []trace.Instr{
		{Kind: trace.Load, PC: 1, Addr: 0x100},
		{Kind: trace.Store, PC: 2, Addr: 0x100, DepDist: 1},
	}
	m := &orderMem{loadLat: 150}
	c := MustNewScripted(0, DefaultConfig(), m, instrs)
	run(c, 500)
	if len(m.issues) != 2 {
		t.Fatalf("%d issues, want 2", len(m.issues))
	}
	if m.issues[1] < 151 {
		t.Errorf("paired store walked at %d, before its producer's data at 151", m.issues[1])
	}
}

func TestPendingOpsDrain(t *testing.T) {
	var instrs []trace.Instr
	for i := 0; i < 40; i++ {
		dep := uint32(0)
		if i > 0 {
			dep = 1
		}
		instrs = append(instrs, trace.Instr{Kind: trace.Load, PC: 5, Addr: uint64(i) * 64, DepDist: dep})
	}
	m := &orderMem{loadLat: 20}
	c := MustNewScripted(0, DefaultConfig(), m, instrs)
	run(c, 5000)
	if got := c.PendingOps(); got != 0 {
		t.Errorf("pending ops %d after drain, want 0", got)
	}
	if len(m.issues) != 40 {
		t.Errorf("issued %d loads, want 40", len(m.issues))
	}
}

func TestROBOccupancyBounded(t *testing.T) {
	instrs := []trace.Instr{{Kind: trace.Load, PC: 1, Addr: 0}}
	for i := 0; i < 1000; i++ {
		instrs = append(instrs, trace.Instr{Kind: trace.ALU, PC: 2})
	}
	m := &orderMem{loadLat: 10_000}
	c := MustNewScripted(0, DefaultConfig(), m, instrs)
	for cyc := uint64(0); cyc < 2000; {
		next := c.Tick(cyc)
		if got := c.ROBOccupancy(); got > 128 {
			t.Fatalf("ROB occupancy %d exceeds capacity", got)
		}
		if next <= cyc {
			cyc++
		} else {
			cyc = next
		}
	}
	if c.ROBOccupancy() != 128 {
		t.Errorf("ROB should be full behind the blocked load, got %d", c.ROBOccupancy())
	}
}

// TestROBEntrySize pins the ROB entry at 32 bytes: the entry's completion
// cycle doubles as the dependence record, so no sequence number or
// separate completion ring is kept.
func TestROBEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(robEntry{}); n != 32 {
		t.Errorf("robEntry is %d bytes, want 32", n)
	}
}

// latMem gives every load a latency that varies with its address, so
// producers complete out of order, and records each load's issue cycle.
type latMem struct {
	issue map[uint64]uint64
}

func loadLat(addr uint64) uint64 { return 1 + addr/64*37%300 }

func (m *latMem) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	m.issue[addr] = cycle
	return cycle + loadLat(addr)
}

func (m *latMem) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	return cycle + 1
}

// TestDependenceChainsWrapTheROB runs long, interleaved load chains through
// a small ROB many times over. Dependence distances reach past the ROB
// (committed producers), to the oldest live entry, and to entries whose
// completion is still unknown, so consumers read producer slots on both
// sides of the ring's wrap point. Every load must issue no earlier than its
// producer completed, and every load must issue. Under simcheck the commit
// hook also asserts no producer slot is freed while a consumer waits on it.
func TestDependenceChainsWrapTheROB(t *testing.T) {
	const rob, n = 16, 4000
	dists := []uint32{1, 2, 3, 7, 15, 16, 17, 40}
	instrs := make([]trace.Instr, n)
	for i := range instrs {
		d := dists[i*7%len(dists)]
		if uint32(i) < d || i%11 == 0 {
			d = 0
		}
		instrs[i] = trace.Instr{Kind: trace.Load, PC: uint64(i % 13), Addr: uint64(i) * 64, DepDist: d}
	}
	m := &latMem{issue: map[uint64]uint64{}}
	cfg := DefaultConfig()
	cfg.ROBEntries = rob
	c := MustNewScripted(0, cfg, m, instrs)
	run(c, 400_000)
	if len(m.issue) != n {
		t.Fatalf("%d of %d loads issued", len(m.issue), n)
	}
	for i, in := range instrs {
		if in.DepDist == 0 {
			continue
		}
		p := instrs[i-int(in.DepDist)].Addr
		if done := m.issue[p] + loadLat(p); m.issue[in.Addr] < done {
			t.Fatalf("load %d issued at %d, before its producer (DepDist %d) completed at %d",
				i, m.issue[in.Addr], in.DepDist, done)
		}
	}
	if c.Stats().Committed < n {
		t.Fatalf("committed %d of %d", c.Stats().Committed, n)
	}
}

// randMem gives each memory operation a pseudo-random latency from its own
// seeded stream, so producers complete far out of order.
type randMem struct{ state uint64 }

func (m *randMem) lat() uint64 {
	m.state = m.state*6364136223846793005 + 1442695040888963407
	return 1 + m.state>>33%400
}

func (m *randMem) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	return cycle + m.lat()
}

func (m *randMem) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	return cycle + m.lat()%4
}

// bruteWake is the least ready cycle among c's pending ops whose producer's
// completion is known, found by scanning them all: what pendWake caches.
func bruteWake(c *Core) uint64 {
	wake := unknownCompletion
	for _, p := range c.pending {
		dep := c.rob[p.depIdx].completeCycle
		if dep == unknownCompletion {
			continue
		}
		if ready := max(p.minReady, dep); ready < wake {
			wake = ready
		}
	}
	return wake
}

// TestPendWakeIsExact drives a scripted core through random dependences,
// instruction kinds and load latencies, following Tick's wake hints as the
// simulator does, and requires pendWake to equal a scan of the pending ops
// after every Tick. pendWake must also be finite whenever an op is pending,
// or issuePending would never scan again.
func TestPendWakeIsExact(t *testing.T) {
	for _, rob := range []int{8, 32, 128} {
		rng := uint64(rob)
		next := func(n uint64) uint64 {
			rng = rng*2862933555777941757 + 3037000493
			return rng >> 33 % n
		}
		instrs := make([]trace.Instr, 20_000)
		for i := range instrs {
			in := trace.Instr{Kind: trace.Kind(next(3)), PC: next(64), Addr: uint64(i) * 64}
			if d := uint32(next(uint64(2 * rob))); d <= uint32(i) {
				in.DepDist = d
			}
			instrs[i] = in
		}
		cfg := DefaultConfig()
		cfg.ROBEntries = rob
		c := MustNewScripted(0, cfg, &randMem{state: uint64(rob)}, instrs)
		for cyc := uint64(0); c.Stats().Committed < uint64(len(instrs)); {
			wake := c.Tick(cyc)
			if got, want := c.pendWake, bruteWake(c); got != want {
				t.Fatalf("ROB %d, cycle %d: pendWake %d, scan of %d pending ops gives %d",
					rob, cyc, got, len(c.pending), want)
			}
			if len(c.pending) > 0 && c.pendWake == unknownCompletion {
				t.Fatalf("ROB %d, cycle %d: %d ops pending and none has a known producer", rob, cyc, len(c.pending))
			}
			if cyc > 100_000_000 {
				t.Fatalf("ROB %d: committed %d of %d by cycle %d", rob, c.Stats().Committed, len(instrs), cyc)
			}
			cyc = max(wake, cyc+1)
		}
	}
}
