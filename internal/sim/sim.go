// Package sim composes the substrate models — out-of-order cores, private
// L1/L2 caches, the enhanced TLB, the criticality predictor, the NUCA LLC
// with its ReRAM wear tracking, the mesh NoC and the DDR3 memory — into the
// 16-core CMP of Table I, and runs multi-programmed workloads on it. It
// replaces gem5 for this reproduction (see DESIGN.md).
//
// Timing model. Memory operations are resolved synchronously at dispatch
// ("latency-oracle" style): the walk consults and mutates every level,
// charging latencies as it goes, and returns the completion cycle; queueing
// is modelled by next-free timestamps inside the NoC links, DRAM banks and
// channel buses. Writes drain through a store buffer and never hold up
// commit; write-backs and DRAM write traffic are posted but still occupy
// the shared resources they traverse.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/nuca"
	"repro/internal/predictor"
	"repro/internal/rram"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// coreAddrShift positions the core ID above every application address so
// the per-core address spaces of a multi-programmed workload are disjoint
// in the shared physical space (SE-mode gem5 achieves the same by giving
// each process its own mappings).
const coreAddrShift = 36

// Config assembles a full system. Zero values are filled by DefaultConfig.
type Config struct {
	Cores   int
	ClockHz float64
	Seed    uint64

	CPU  cpu.Config
	L1   cache.Config
	L2   cache.Config
	LLC  nuca.Config
	TLB  tlb.Config
	CPT  predictor.Config
	NoC  noc.Config
	DRAM dram.Config

	Endurance    float64 // ReRAM per-cell write budget
	LifetimeCap  float64 // reporting cap in years
	MaxRunCycles uint64  // safety bound per Run call
}

// DefaultConfig returns Table I's configuration under the given policy:
// 16 OoO cores at 2.4GHz with 128-entry ROBs, 32KB/4-way L1 (2 cycles),
// 256KB/8-way private L2 (5 cycles), 16x2MB/16-way ReRAM L3 banks
// (100 cycles) on a 4x4 mesh, and 4-channel DDR3. Table I's MESI directory
// has no counterpart: each core's addresses lie in their own window, so
// coreOf names the one private cache that can hold a line.
func DefaultConfig(policy nuca.Policy) Config {
	llc := nuca.DefaultConfig()
	llc.Policy = policy
	return Config{
		Cores:   16,
		ClockHz: 2.4e9,
		Seed:    1,
		CPU:     cpu.DefaultConfig(),
		L1:      cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 2},
		L2:      cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, Latency: 5},
		LLC:     llc,
		TLB:     tlb.DefaultConfig(),
		CPT:     predictor.DefaultConfig(),
		NoC:     noc.DefaultConfig(),
		DRAM:    dram.DefaultConfig(),

		// Effective per-line endurance: the paper quotes 1e11 writes per
		// cell (Section V-A); a 64B line spans 512 cells and dies with its
		// weakest cell, so the effective line endurance is derated ~3x for
		// cell-to-cell variation. This calibration also lands absolute
		// lifetimes in the paper's 2-13 year range; every relative
		// comparison between policies is invariant to it.
		Endurance:    3e10,
		LifetimeCap:  50,
		MaxRunCycles: 1 << 40,
	}
}

// CharacterisationConfig returns the single-core setup the paper uses for
// Table II / Figure 2: one core with a private 256KB L2 and a single 2MB L3
// bank (policy S-NUCA, trivially).
func CharacterisationConfig() Config {
	cfg := DefaultConfig(nuca.SNUCA)
	cfg.Cores = 1
	cfg.LLC.NumBanks = 1
	cfg.LLC.MeshWidth = 1
	cfg.LLC.MeshHeight = 1
	cfg.NoC.Width = 1
	cfg.NoC.Height = 1
	return cfg
}

// CoreCounters are per-core memory-system counters, frozen per core when it
// reaches its measurement target.
type CoreCounters struct {
	Loads      uint64
	Stores     uint64
	TLBMisses  uint64
	L1Misses   uint64
	L2Misses   uint64
	LLCHits    uint64
	LLCMisses  uint64
	Writebacks uint64 // L2 dirty evictions this core pushed to the LLC
}

// System is one simulated CMP instance. A System is single-threaded — none
// of its methods may be called concurrently — but independent Systems share
// no mutable state (trace profile tables are read-only), so running many of
// them in parallel is safe and is exactly what the experiment harness does:
// internal/pool confines each System to one worker goroutine for its whole
// lifetime (see core.RunSuiteOn).
type System struct {
	cfg   Config
	cores []*cpu.Core
	gens  []*trace.AppGen
	l1    []*cache.Cache
	l2    []*cache.Cache
	tlbs  []*tlb.TLB
	llc   *nuca.LLC
	mesh  *noc.Mesh
	mem   *dram.Memory
	wear  *rram.Wear

	cycle        uint64
	measureStart uint64
	inclusion    coherence.Stats

	// Widened copies of the per-access latencies and the line mask, hoisted
	// out of walk() (one of each conversion per memory operation otherwise).
	l1Lat      uint64
	l2Lat      uint64
	tlbMissLat uint64
	lineMask   uint64 // LLC.LineBytes-1
	coreTile   []int  // core -> mesh tile, memoised off the per-walk path

	counters []CoreCounters
	frozen   []CoreCounters
	isFrozen []bool
	doneAt   []uint64
	nextWake []uint64 // per-core wake schedule, reused across Run calls
}

// New builds a system running the given application profiles, one per core.
func New(cfg Config, apps []trace.Profile) (*System, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: core count %d must be positive", cfg.Cores)
	}
	if len(apps) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d application profiles for %d cores", len(apps), cfg.Cores)
	}
	if cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("sim: clock %v must be positive", cfg.ClockHz)
	}
	// paddr and the private caches work in 64-byte lines. A shorter LLC
	// line would leave part of an L2 line outside the inclusive LLC, which
	// handleLLCVictim's shootdown and handleL2Victim's write-back assume.
	if cfg.LLC.LineBytes < 64 {
		return nil, fmt.Errorf("sim: LLC line size %d below the 64-byte L2 lines the inclusive LLC must cover", cfg.LLC.LineBytes)
	}
	// The CMP puts one core on each mesh tile, and R-NUCA's cluster map
	// indexes its clusters by that tile.
	if tiles := cfg.LLC.MeshWidth * cfg.LLC.MeshHeight; cfg.Cores > tiles {
		return nil, fmt.Errorf("sim: %d cores exceed the %d mesh tiles; R-NUCA's cluster map holds one core per tile", cfg.Cores, tiles)
	}
	// Every cache sees whole physical addresses, so each geometry must
	// leave tags narrow enough for a frame at the System's address width.
	addrBits := physAddrBits(cfg.Cores)
	for _, cc := range []cache.Config{cfg.L1, cfg.L2, nuca.BankConfig(cfg.LLC, 0)} {
		if err := cache.CheckTagWidth(cc, addrBits); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}

	s := &System{cfg: cfg}
	s.l1Lat = uint64(cfg.L1.Latency)
	s.l2Lat = uint64(cfg.L2.Latency)
	s.tlbMissLat = uint64(cfg.TLB.MissLatency)
	s.lineMask = cfg.LLC.LineBytes - 1
	var err error
	if s.mesh, err = noc.New(cfg.NoC); err != nil {
		return nil, err
	}
	if s.mem, err = dram.New(cfg.DRAM); err != nil {
		return nil, err
	}
	wearCfg := rram.Config{
		Banks:         cfg.LLC.NumBanks,
		FramesPerBank: cfg.LLC.BankBytes / cfg.LLC.LineBytes,
		Endurance:     cfg.Endurance,
		ClockHz:       cfg.ClockHz,
		CapYears:      cfg.LifetimeCap,
	}
	if s.wear, err = rram.New(wearCfg); err != nil {
		return nil, err
	}
	if s.llc, err = nuca.New(cfg.LLC, s.wear); err != nil {
		return nil, err
	}

	s.counters = make([]CoreCounters, cfg.Cores)
	s.frozen = make([]CoreCounters, cfg.Cores)
	s.isFrozen = make([]bool, cfg.Cores)
	s.doneAt = make([]uint64, cfg.Cores)
	s.nextWake = make([]uint64, cfg.Cores)
	s.coreTile = make([]int, cfg.Cores)
	for i := range s.coreTile {
		s.coreTile[i] = i % s.mesh.Tiles()
	}

	for i := 0; i < cfg.Cores; i++ {
		l1cfg := cfg.L1
		l1cfg.Name = fmt.Sprintf("L1D.%d", i)
		l1, err := cache.New(l1cfg)
		if err != nil {
			return nil, err
		}
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("L2.%d", i)
		l2, err := cache.New(l2cfg)
		if err != nil {
			return nil, err
		}
		tb, err := tlb.New(cfg.TLB)
		if err != nil {
			return nil, err
		}
		cpt, err := predictor.New(cfg.CPT)
		if err != nil {
			return nil, err
		}
		gen, err := trace.NewAppGen(apps[i], cfg.Seed+uint64(i)*0x9e37)
		if err != nil {
			return nil, err
		}
		core, err := cpu.New(i, cfg.CPU, gen, s, cpt)
		if err != nil {
			return nil, err
		}
		s.l1 = append(s.l1, l1)
		s.l2 = append(s.l2, l2)
		s.tlbs = append(s.tlbs, tb)
		s.gens = append(s.gens, gen)
		s.cores = append(s.cores, core)
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, apps []trace.Profile) *System {
	s, err := New(cfg, apps)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the construction parameters.
func (s *System) Config() Config { return s.cfg }

// Cycle returns the current global cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// LLC exposes the last-level cache (stats, wear).
func (s *System) LLC() *nuca.LLC { return s.llc }

// Mesh exposes the NoC (stats).
func (s *System) Mesh() *noc.Mesh { return s.mesh }

// DRAM exposes the memory model (stats).
func (s *System) DRAM() *dram.Memory { return s.mem }

// Directory returns the inclusive LLC's back-invalidation counters. It keeps
// the name of the MESI directory that counted them before coreOf replaced
// it.
func (s *System) Directory() coherence.Stats { return s.inclusion }

// Core exposes a core (stats, predictor).
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// TLB exposes a core's enhanced TLB (stats).
func (s *System) TLB(i int) *tlb.TLB { return s.tlbs[i] }

// Counters returns core i's memory counters: the frozen snapshot if the
// core finished its measurement target, otherwise the live values.
func (s *System) Counters(i int) CoreCounters {
	if s.isFrozen[i] {
		return s.frozen[i]
	}
	return s.counters[i]
}

// paddr embeds the core ID above the application's virtual address and
// scatters each core's lines by a per-core offset. Without the scatter,
// every process's identically-laid-out regions would alias into the same
// LLC sets (all cores' hot lines fighting over one 16-way set); SE-mode
// process isolation gives each process distinct physical pages, which this
// reproduces while preserving intra-core contiguity (streams stay streams).
//
// The scattered line number is masked to the bits below coreAddrShift:
// without the mask, an application address near the top of the per-core
// window carries into the core-ID field, and coreOf would attribute the
// address — and, under Re-NUCA, the MBV bookkeeping for its LLC evictions —
// to the wrong core (wrapping within the window only risks intra-core
// aliasing, which the set-associative caches handle like any other
// conflict).
func paddr(core int, addr uint64) uint64 {
	const lineMask = 1<<(coreAddrShift-6) - 1
	line := ((addr >> 6) + uint64(core)*0x12D687) & lineMask // +core x 1,234,567 lines
	return line<<6 | (addr & 63) | uint64(core)<<coreAddrShift
}

// physAddrBits is the width of the physical addresses paddr produces on a
// System of the given core count: the per-core window below coreAddrShift
// plus the core-ID bits above it (40 bits at 16 cores).
func physAddrBits(cores int) uint {
	return coreAddrShift + uint(bits.Len(uint(cores-1)))
}

// coreOf recovers the owning core from a physical address.
func (s *System) coreOf(addr uint64) int {
	return int(addr>>coreAddrShift) % s.cfg.Cores
}

// tileOf maps a core to its mesh tile (one core and one bank per tile),
// via the table built at New time.
//
//lint:hotpath
func (s *System) tileOf(core int) int { return s.coreTile[core] }
