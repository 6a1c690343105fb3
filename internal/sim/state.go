// Batch-wide state plane support: the hot per-System state arrays — L1/L2
// frame arrays, LLC bank frames and bank-free stamps, TLB entries, DRAM
// bank/bus words and ReRAM wear counters — can be adopted from
// caller-owned windows instead of allocated per subsystem. The lane-batched
// executor (internal/simbatch) uses this to stack every lane's state into
// one [lane*stride+idx] backing array per kind, giving the shared-tick loop
// cross-lane locality; the serial path passes nil windows and gets exactly
// the self-owned layout New always built.
package sim

import (
	"fmt"

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

// Dims is the per-lane shape of a System's windowed state, derived from a
// Config by StateDims. Two Systems with equal Dims can live in the same
// batch-wide state plane. The struct is comparable so the executor can
// test compatibility with ==.
type Dims struct {
	Cores      int
	L1Lines    uint64 // per core
	L2Lines    uint64 // per core
	LLCLines   uint64 // all banks
	LLCBanks   int
	TLBEntries int // per core
	DRAMWords  int
	WearWords  uint64
}

// wearConfig derives the wear-tracker configuration New has always built
// from the system configuration.
func wearConfig(cfg Config) rram.Config {
	return rram.Config{
		Banks:         cfg.LLC.NumBanks,
		FramesPerBank: cfg.LLC.BankBytes / cfg.LLC.LineBytes,
		Endurance:     cfg.Endurance,
		ClockHz:       cfg.ClockHz,
		CapYears:      cfg.LifetimeCap,
	}
}

// StateDims validates cfg's state geometry and returns the window shape a
// System built from it needs. It checks only the array-bearing subsystems;
// NewWindowed still performs the full construction-time validation.
func StateDims(cfg Config) (Dims, error) {
	var d Dims
	if cfg.Cores <= 0 {
		return d, fmt.Errorf("sim: core count %d must be positive", cfg.Cores)
	}
	d.Cores = cfg.Cores
	var err error
	if d.L1Lines, err = cache.BackingLines(cfg.L1); err != nil {
		return d, err
	}
	if d.L2Lines, err = cache.BackingLines(cfg.L2); err != nil {
		return d, err
	}
	if d.LLCLines, err = nuca.BackingLines(cfg.LLC); err != nil {
		return d, err
	}
	d.LLCBanks = cfg.LLC.NumBanks
	if d.TLBEntries, err = tlb.BackingEntries(cfg.TLB); err != nil {
		return d, err
	}
	if d.DRAMWords, err = dram.BackingWords(cfg.DRAM); err != nil {
		return d, err
	}
	if d.WearWords, err = rram.BackingWords(wearConfig(cfg)); err != nil {
		return d, err
	}
	return d, nil
}

// Windows carries the caller-owned state windows one System adopts. Every
// field must be sized exactly to the matching Dims quantity (L1/L2/TLB are
// core-major: core i's slots live at [i*stride:(i+1)*stride]). A nil
// *Windows — or any nil field — falls back to self-owned allocation for
// that state, which is how the serial path runs.
type Windows struct {
	L1       cache.Backing // Cores*L1Lines frames, core-major
	L2       cache.Backing // Cores*L2Lines frames, core-major
	LLC      cache.Backing // LLCLines frames, bank-major
	BankFree []uint64      // LLCBanks next-free stamps
	TLB      tlb.Backing   // Cores*TLBEntries slots, core-major
	DRAM     dram.Backing  // DRAMWords bank/bus state words
	Wear     rram.Backing  // WearWords frame counters, bank-major
}

// NewWindowed is New adopting caller-owned state windows. Windows are
// reset by the adopting subsystems, so handing a System's windows to a new
// System (lane refill after retirement) needs no scrubbing in between. A
// wrongly-sized window is a construction error, never silent truncation.
func NewWindowed(cfg Config, apps []trace.Profile, w *Windows) (*System, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: core count %d must be positive", cfg.Cores)
	}
	if len(apps) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d application profiles for %d cores", len(apps), cfg.Cores)
	}
	if cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("sim: clock %v must be positive", cfg.ClockHz)
	}
	// Every cache sees whole physical addresses, so each geometry must
	// leave tags narrow enough for a frame at the System's address width.
	addrBits := physAddrBits(cfg.Cores)
	for _, cc := range []cache.Config{cfg.L1, cfg.L2, nuca.BankConfig(cfg.LLC, 0)} {
		if err := cache.CheckTagWidth(cc, addrBits); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if w == nil {
		w = &Windows{}
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
	if s.mem, err = dram.NewWindowed(cfg.DRAM, w.DRAM); err != nil {
		return nil, err
	}
	if s.wear, err = rram.NewWindowed(wearConfig(cfg), w.Wear); err != nil {
		return nil, err
	}
	if s.llc, err = nuca.NewWindowed(cfg.LLC, s.wear, w.LLC, w.BankFree); err != nil {
		return nil, err
	}
	if s.dir, err = coherence.NewDirectory(cfg.Cores); err != nil {
		return nil, err
	}

	// Per-core window strides; validated up front so a short plane fails
	// before any core adopts a partial window.
	l1Lines, err := cache.BackingLines(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2Lines, err := cache.BackingLines(cfg.L2)
	if err != nil {
		return nil, err
	}
	tlbEntries, err := tlb.BackingEntries(cfg.TLB)
	if err != nil {
		return nil, err
	}
	if w.L1 != nil && uint64(len(w.L1)) != uint64(cfg.Cores)*l1Lines {
		return nil, fmt.Errorf("sim: L1 window holds %d frames, %d cores need %d",
			len(w.L1), cfg.Cores, uint64(cfg.Cores)*l1Lines)
	}
	if w.L2 != nil && uint64(len(w.L2)) != uint64(cfg.Cores)*l2Lines {
		return nil, fmt.Errorf("sim: L2 window holds %d frames, %d cores need %d",
			len(w.L2), cfg.Cores, uint64(cfg.Cores)*l2Lines)
	}
	if w.TLB != nil && len(w.TLB) != cfg.Cores*tlbEntries {
		return nil, fmt.Errorf("sim: TLB window holds %d entries, %d cores need %d",
			len(w.TLB), cfg.Cores, cfg.Cores*tlbEntries)
	}

	s.counters = make([]CoreCounters, cfg.Cores)
	s.frozen = make([]CoreCounters, cfg.Cores)
	s.isFrozen = make([]bool, cfg.Cores)
	s.doneAt = make([]uint64, cfg.Cores)
	s.coreTile = make([]int, cfg.Cores)
	for i := range s.coreTile {
		s.coreTile[i] = i % s.mesh.Tiles()
	}

	for i := 0; i < cfg.Cores; i++ {
		var l1Win, l2Win cache.Backing
		var tlbWin tlb.Backing
		if w.L1 != nil {
			l1Win = w.L1[uint64(i)*l1Lines : uint64(i+1)*l1Lines]
		}
		if w.L2 != nil {
			l2Win = w.L2[uint64(i)*l2Lines : uint64(i+1)*l2Lines]
		}
		if w.TLB != nil {
			tlbWin = w.TLB[i*tlbEntries : (i+1)*tlbEntries]
		}
		l1cfg := cfg.L1
		l1cfg.Name = fmt.Sprintf("L1D.%d", i)
		l1, err := cache.NewWindowed(l1cfg, l1Win)
		if err != nil {
			return nil, err
		}
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("L2.%d", i)
		l2, err := cache.NewWindowed(l2cfg, l2Win)
		if err != nil {
			return nil, err
		}
		tb, err := tlb.NewWindowed(cfg.TLB, tlbWin)
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
