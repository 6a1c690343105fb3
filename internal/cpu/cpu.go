// Package cpu models the out-of-order cores of Table I at the level the
// paper's mechanisms need: a reorder buffer (ROB) with in-order dispatch
// and in-order commit, out-of-order completion driven by data dependences
// and memory latency, and detection of loads that block the ROB head — the
// paper's definition of a critical load (Section IV-A). The model is
// trace-driven: a trace.Generator supplies the dynamic instruction stream,
// and a MemSystem resolves memory timing.
package cpu

import (
	"fmt"

	"repro/internal/predictor"
	"repro/internal/trace"
)

// Config parameterises one core.
type Config struct {
	ROBEntries   int
	IssueWidth   int // instructions dispatched into the ROB per cycle
	CommitWidth  int // instructions committed per cycle
	ALULatency   uint32
	StoreLatency uint32 // store-buffer acceptance latency
	// HeadBlockThreshold filters criticality episodes: a load only counts
	// as blocking the ROB head when it stalls commit for more than this
	// many cycles. This absorbs the 1-2 cycle commit hiccups of L1/L2 hits
	// (which no useful criticality predictor should flag) while every
	// LLC- or DRAM-bound stall (100+ cycles in Table I) registers.
	HeadBlockThreshold uint64
}

// DefaultConfig matches Table I: 128-entry ROB on a 4-wide core. The block
// threshold sits just above the private L2 hit latency.
func DefaultConfig() Config {
	return Config{ROBEntries: 128, IssueWidth: 4, CommitWidth: 4, ALULatency: 1, StoreLatency: 2, HeadBlockThreshold: 8}
}

// MemSystem resolves memory operations. Load returns the cycle the data is
// available; Store returns the cycle the store is accepted (stores drain
// from a store buffer and do not hold up commit). critical carries the
// criticality predictor's verdict for the access, which the Re-NUCA
// mapping logic consumes on an LLC fill.
type MemSystem interface {
	Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64
	Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64
}

// Stats accumulates per-core execution counters.
type Stats struct {
	Committed       uint64
	CommittedLoads  uint64
	CommittedStores uint64
	// HeadBlockEpisodes counts loads that blocked the ROB head at least
	// once — the paper's critical loads (ground truth for Figure 5).
	HeadBlockEpisodes uint64
	// HeadBlockCycles counts cycles the head was blocked by an incomplete load.
	HeadBlockCycles uint64
	// ROBFullCycles counts cycles dispatch stalled on a full ROB.
	ROBFullCycles uint64
}

// NonCriticalLoadFraction returns the fraction of committed loads that
// never blocked the ROB head (Figure 5's metric).
func (s Stats) NonCriticalLoadFraction() float64 {
	if s.CommittedLoads == 0 {
		return 0
	}
	return 1 - float64(s.HeadBlockEpisodes)/float64(s.CommittedLoads)
}

// pendingOp defers execution of a ROB entry until its producer completes.
type pendingOp struct {
	robIdx   int
	depSeq   uint64
	minReady uint64
}

type robEntry struct {
	seq           uint64
	pc            uint64
	addr          uint64
	completeCycle uint64
	kind          trace.Kind
	predictedCrit bool
	blockedHead   bool
}

// Core is one simulated out-of-order core. Not safe for concurrent use.
type Core struct {
	cfg Config
	id  int
	gen trace.Generator
	mem MemSystem
	cpt *predictor.CPT

	rob        []robEntry
	head, tail int
	count      int
	seq        uint64 // next dynamic sequence number to dispatch

	// pending holds dispatched instructions whose memory walk (or ALU
	// completion) is deferred until their producer completes.
	pending []pendingOp

	// completion records the completion cycle of recent instructions,
	// indexed by seq modulo its (power-of-two) length, for dependence
	// resolution. Any dependence older than the current ROB contents has
	// committed and is complete by construction. compMask caches
	// len(completion)-1 for the per-instruction index computations.
	completion []uint64
	compMask   uint64

	stats Stats

	// scratch receives Generator.Next output. A local would be forced to
	// the heap on every dispatch call: the generator is an interface, so
	// escape analysis cannot prove the pointer does not outlive the call.
	scratch trace.Instr

	// Measurement bookkeeping (managed via ResetStats/Done).
	target    uint64
	doneCycle uint64
	done      bool
}

// New builds a core. The predictor may be nil, in which case every load is
// treated as non-critical (useful for policies that ignore criticality).
func New(id int, cfg Config, gen trace.Generator, mem MemSystem, cpt *predictor.CPT) (*Core, error) {
	if cfg.ROBEntries <= 0 {
		return nil, fmt.Errorf("cpu: ROB size %d must be positive", cfg.ROBEntries)
	}
	if cfg.IssueWidth <= 0 || cfg.CommitWidth <= 0 {
		return nil, fmt.Errorf("cpu: zero issue/commit width")
	}
	if gen == nil || mem == nil {
		return nil, fmt.Errorf("cpu: nil generator or memory system")
	}
	histLen := 1
	for histLen < cfg.ROBEntries+1 {
		histLen <<= 1
	}
	return &Core{
		cfg:        cfg,
		id:         id,
		gen:        gen,
		mem:        mem,
		cpt:        cpt,
		rob:        make([]robEntry, cfg.ROBEntries),
		completion: make([]uint64, histLen),
		compMask:   uint64(histLen - 1),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(id int, cfg Config, gen trace.Generator, mem MemSystem, cpt *predictor.CPT) *Core {
	c, err := New(id, cfg, gen, mem, cpt)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Predictor returns the core's CPT (may be nil).
func (c *Core) Predictor() *predictor.CPT { return c.cpt }

// SetTarget arms measurement: the core reports done once it has committed n
// further instructions (counted from the current stats).
func (c *Core) SetTarget(n uint64) {
	c.target = c.stats.Committed + n
	c.done = n == 0
	c.doneCycle = 0
}

// Done reports whether the measurement target has been reached, and at
// which cycle it was crossed.
func (c *Core) Done() (bool, uint64) { return c.done, c.doneCycle }

// ResetStats zeroes the execution counters (warmup/measure boundary). The
// microarchitectural state (ROB contents, predictor table) is preserved.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	if c.cpt != nil {
		c.cpt.ResetStats()
	}
}

// unknownCompletion marks an instruction whose completion cycle is not yet
// known (its memory walk is deferred until operands are ready).
const unknownCompletion = ^uint64(0)

// Tick advances the core by one cycle: issue deferred memory operations
// whose operands became ready, commit up to CommitWidth completed
// instructions from the ROB head, then dispatch up to IssueWidth new
// instructions. It returns the earliest future cycle at which calling Tick
// again can make progress (used by the simulator to skip idle cycles).
func (c *Core) Tick(cycle uint64) (nextWake uint64) {
	c.issuePending(cycle)
	c.commit(cycle)
	c.dispatch(cycle)

	if c.count < c.cfg.ROBEntries {
		return cycle + 1
	}
	// ROB full: if the head can commit right away, keep ticking cycle by
	// cycle (the commit drain is the progress). Otherwise sleep until the
	// head completes or a pending operation becomes issueable, whichever
	// is earlier.
	wake := unknownCompletion
	if h := &c.rob[c.head]; h.completeCycle != unknownCompletion {
		if h.completeCycle <= cycle {
			return cycle + 1
		}
		wake = h.completeCycle
	}
	for i := range c.pending {
		p := &c.pending[i]
		dep := c.completion[p.depSeq&c.compMask]
		if dep == unknownCompletion {
			continue
		}
		ready := p.minReady
		if dep > ready {
			ready = dep
		}
		if ready < wake {
			wake = ready
		}
	}
	if wake == unknownCompletion || wake <= cycle {
		return cycle + 1
	}
	return wake
}

// issuePending walks deferred memory operations (and resolves deferred ALU
// completions) whose producers have completed and whose ready time has
// arrived. Deferring the walk until the operands exist keeps the shared
// resource timestamps (NoC links, DRAM banks) causally ordered: a dependent
// load must not reserve a link hundreds of cycles before its address is
// known.
//
//lint:hotpath
func (c *Core) issuePending(cycle uint64) {
	if len(c.pending) == 0 {
		return
	}
	kept := c.pending[:0]
	for i := range c.pending {
		p := c.pending[i]
		dep := c.completion[p.depSeq&c.compMask]
		if dep == unknownCompletion {
			//lint:allow allocfree compaction into the same backing array never grows it
			kept = append(kept, p)
			continue
		}
		ready := p.minReady
		if dep > ready {
			ready = dep
		}
		if ready > cycle {
			//lint:allow allocfree compaction into the same backing array never grows it
			kept = append(kept, p)
			continue
		}
		c.execute(&c.rob[p.robIdx], ready)
	}
	c.pending = kept
}

// execute resolves an instruction's completion at its ready time, issuing
// memory operations into the hierarchy.
//
//lint:hotpath
func (c *Core) execute(e *robEntry, ready uint64) {
	switch e.kind {
	case trace.ALU:
		e.completeCycle = ready + uint64(c.cfg.ALULatency)
	case trace.Load:
		crit := false
		if c.cpt != nil {
			crit = c.cpt.Issue(e.pc)
		}
		e.predictedCrit = crit
		e.completeCycle = c.mem.Load(c.id, e.pc, e.addr, crit, ready)
	case trace.Store:
		// Stores are accepted by the store buffer quickly; the walk still
		// runs so downstream cache state and contention advance.
		c.mem.Store(c.id, e.pc, e.addr, false, ready)
		e.completeCycle = ready + uint64(c.cfg.StoreLatency)
	}
	c.completion[e.seq&c.compMask] = e.completeCycle
}

//lint:hotpath
func (c *Core) commit(cycle uint64) {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		h := &c.rob[c.head]
		if h.completeCycle == unknownCompletion {
			// Head still waiting on operands; its stall will be charged
			// once the walk resolves and the remaining latency is known.
			return
		}
		if h.completeCycle > cycle {
			// Head not complete: if it is a load stalling commit beyond
			// the threshold, this is a ROB-head block — the paper's
			// criticality ground truth. The full remaining stall is
			// charged once, here, because the simulator skips idle cycles
			// and per-tick accumulation would undercount.
			if h.kind == trace.Load && !h.blockedHead {
				if remaining := h.completeCycle - cycle; remaining > c.cfg.HeadBlockThreshold {
					h.blockedHead = true
					c.stats.HeadBlockEpisodes++
					c.stats.HeadBlockCycles += remaining
					if c.cpt != nil {
						c.cpt.OnROBBlock(h.pc)
					}
				}
			}
			return
		}
		switch h.kind {
		case trace.Load:
			c.stats.CommittedLoads++
			if c.cpt != nil {
				c.cpt.OnLoadCommit(h.pc, h.predictedCrit, h.blockedHead)
			}
		case trace.Store:
			c.stats.CommittedStores++
		}
		c.stats.Committed++
		if !c.done && c.target > 0 && c.stats.Committed >= c.target {
			c.done = true
			c.doneCycle = cycle
		}
		c.head++
		if c.head == c.cfg.ROBEntries {
			c.head = 0
		}
		c.count--
	}
}

//lint:hotpath
func (c *Core) dispatch(cycle uint64) {
	if c.count == c.cfg.ROBEntries {
		c.stats.ROBFullCycles++
		return
	}
	in := &c.scratch
	for n := 0; n < c.cfg.IssueWidth && c.count < c.cfg.ROBEntries; n++ {
		c.gen.Next(in)
		seq := c.seq
		c.seq++

		// Resolve the data dependence. A dependence farther back than the
		// completion ring has certainly committed (the ring is larger than
		// the ROB), so it is complete by construction; for nearer
		// producers the ring slot is exact — a slot is only reused by
		// instructions that have not been dispatched yet.
		ready := cycle + 1
		depKnown := true
		var depSeq uint64
		if in.DepDist > 0 && uint64(in.DepDist) < uint64(len(c.completion)) && uint64(in.DepDist) <= seq {
			depSeq = seq - uint64(in.DepDist)
			t := c.completion[depSeq&c.compMask]
			if t == unknownCompletion {
				depKnown = false
			} else if t > ready {
				ready = t
			}
		}

		// Fill the ROB slot in place: building a robEntry value and copying
		// it in made dispatch the hottest memmove in the profile. Slots are
		// reused, so every field — including the predictedCrit/blockedHead
		// flags execute/commit set later — must be written here.
		robIdx := c.tail
		e := &c.rob[robIdx]
		e.seq = seq
		e.pc = in.PC
		e.addr = in.Addr
		e.completeCycle = unknownCompletion
		e.kind = in.Kind
		e.predictedCrit = false
		e.blockedHead = false
		c.tail++
		if c.tail == c.cfg.ROBEntries {
			c.tail = 0
		}
		c.count++

		// ALU work with a known producer completes a fixed latency after
		// it; it touches no shared resources, so a future completion can
		// be recorded immediately. Memory operations whose ready time lies
		// in the future are deferred so they reserve NoC/DRAM resources
		// only once their operands exist.
		mustDefer := !depKnown || (ready > cycle+1 && in.Kind != trace.ALU)
		if mustDefer {
			c.completion[seq&c.compMask] = unknownCompletion
			// The pending queue is bounded by the ROB size, so growth
			// amortises to zero within the first few cycles; the sim
			// zero-alloc test holds the steady state to no allocations.
			//lint:allow allocfree pending is ROB-bounded; growth amortises and the zero-alloc test enforces steady state
			c.pending = append(c.pending, pendingOp{
				robIdx:   robIdx,
				depSeq:   depSeq,
				minReady: cycle + 1,
			})
			continue
		}
		c.execute(&c.rob[robIdx], ready)
	}
}

// ROBOccupancy returns the live entry count (diagnostics).
func (c *Core) ROBOccupancy() int { return c.count }

// PendingOps returns how many operations await operands (diagnostics).
func (c *Core) PendingOps() int { return len(c.pending) }
