package sim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/nuca"
)

// Load implements cpu.MemSystem: it resolves a load issued by core at
// cycle, returning the data-available cycle, and mutates the hierarchy
// (fills, evictions, wear, coherence) along the way.
//
//lint:hotpath
func (s *System) Load(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	s.counters[core].Loads++
	return s.walk(core, addr, critical, cycle, false)
}

// Store implements cpu.MemSystem. The returned cycle is the store-buffer
// acceptance time (the core does not wait for the write to reach memory);
// the walk still runs so cache state, wear and contention advance.
//
//lint:hotpath
func (s *System) Store(core int, pc, addr uint64, critical bool, cycle uint64) uint64 {
	s.counters[core].Stores++
	s.walk(core, addr, critical, cycle, true)
	return cycle + s.l1Lat
}

// walk performs the full hierarchy access for one memory operation and
// returns the completion cycle. forStore requests write-allocate semantics:
// the line ends up dirty in L1.
//
//lint:hotpath
func (s *System) walk(core int, vaddr uint64, critical bool, cycle uint64, forStore bool) uint64 {
	pa := paddr(core, vaddr)
	line := pa &^ s.lineMask
	ctr := &s.counters[core]
	t := cycle

	// 1. TLB: consulted by every access; the Mapping Bit Vector read
	//    happens here, before the LLC is reached (Section IV-C).
	hit, mbv := s.tlbs[core].Translate(pa)
	if !hit {
		ctr.TLBMisses++
		t += s.tlbMissLat
	}

	// 2. L1.
	if s.l1[core].Lookup(pa, forStore) {
		return t + s.l1Lat
	}
	ctr.L1Misses++
	t += s.l1Lat

	// 3. L2.
	if s.l2[core].Lookup(pa, false) {
		t += s.l2Lat
		s.fillL1(core, pa, forStore, t)
		return t
	}
	ctr.L2Misses++
	t += s.l2Lat

	// 4. LLC. The Naive oracle first routes the request to the line's
	//    home tile, where its slice of the location directory lives, and
	//    pays the directory lookup there (Section III-A: this directory is
	//    what makes the scheme infeasible). When Re-NUCA probes two
	//    candidate banks they are independent banks, so the requests fan
	//    out in parallel and the latency is the max of the two paths, not
	//    their sum.
	tile := s.tileOf(core)
	origin := tile
	if s.cfg.LLC.Policy == nuca.NaiveWL {
		origin = s.llc.HomeBank(pa)
		t = s.mesh.CtrlTraverse(tile, origin, t)
		t += uint64(s.llc.DirLatency())
	}
	res := s.llc.Access(pa, core, mbv, false)
	if res.Hit && res.NumProbes == 2 {
		// Re-NUCA fallback probe recovered a line whose MBV bit was lost to
		// a TLB entry eviction (Section IV-C leaves this corner unstated):
		// the line lives at the mapping opposite the bit we probed with.
		// Re-learn it so subsequent accesses pay a single probe instead of
		// falling back forever.
		s.tlbs[core].SetMappingBit(pa, !mbv)
	}
	switch {
	case res.Hit:
		arr := s.mesh.CtrlTraverse(origin, res.Bank, t)
		t = s.llc.BankService(res.Bank, arr, false)
	case res.NumProbes > 0:
		// Miss: every probed bank had to answer before going to memory.
		var worst uint64
		for i := 0; i < res.NumProbes; i++ {
			arr := s.mesh.CtrlTraverse(origin, res.Probes[i], t)
			if a := s.llc.BankService(res.Probes[i], arr, false); a > worst {
				worst = a
			}
		}
		t = worst
	}
	if res.Hit {
		ctr.LLCHits++
		s.acquire(line, core, forStore)
		t = s.mesh.DataTraverse(res.Bank, tile, t)
		s.fillL2(core, pa, t)
		s.fillL1(core, pa, forStore, t)
		return t
	}

	// 5. LLC miss: fetch from DRAM, install in the policy-chosen bank.
	//    The slow ReRAM array write of the fill is off the critical path
	//    (fill bypass forwards the data to the core), but it occupies the
	//    bank.
	ctr.LLCMisses++
	tm := s.mem.Access(pa, t, false)
	fill := s.llc.Fill(pa, core, critical, false)
	s.llc.BankService(fill.Bank, tm, true)
	s.handleLLCVictim(fill.Victim, tm)
	if s.cfg.LLC.Policy == nuca.ReNUCA {
		// Record which mapping function placed the line (Section IV-C).
		s.tlbs[core].SetMappingBit(pa, critical)
	}
	s.acquire(line, core, forStore)
	t = s.mesh.DataTraverse(fill.Bank, tile, tm)
	s.fillL2(core, pa, t)
	s.fillL1(core, pa, forStore, t)
	return t
}

// acquire updates the MESI directory for core's L2 obtaining the line.
//
// The walk charges no latency, LLC write or wear for a remote copy:
// neither a downgrade's snoop nor the write-back of a remote M line. The
// evaluated multi-programmed workloads share no lines, so they never take
// these paths; under the simcheck tag sanCheckUncharged panics if one
// does, rather than let a sharing workload run undercharged (DESIGN.md §3).
//
//lint:hotpath
func (s *System) acquire(line uint64, core int, forStore bool) {
	if forStore {
		invalidated, dirtyWB := s.dir.WriteAcquire(line, core)
		sanCheckUncharged(line, core, 0, dirtyWB)
		for m := invalidated; m != 0; m &= m - 1 {
			h := bits.TrailingZeros64(m)
			s.l1[h].Invalidate(line)
			s.l2[h].Invalidate(line)
		}
		return
	}
	downgraded, dirtyWB := s.dir.ReadAcquire(line, core)
	sanCheckUncharged(line, core, downgraded, dirtyWB)
}

// fillL1 installs the line into core's L1 (dirty for stores) and cascades
// the victim into L2. Every caller follows an L1 miss on the line, and
// nothing between the miss and the fill installs it.
//
//lint:hotpath
func (s *System) fillL1(core int, pa uint64, dirty bool, t uint64) {
	sanCheckAbsent(s.l1[core], core, pa)
	v := s.l1[core].Fill(pa, dirty)
	if v.Valid && v.Dirty {
		// L1 dirty victim merges into L2 (enforced inclusive: present).
		if !s.l2[core].Lookup(v.Addr, true) {
			v2 := s.l2[core].Fill(v.Addr, true)
			if v2.Valid {
				s.handleL2Victim(core, v2, t)
			}
		}
	}
}

// fillL2 installs the line into core's L2 (clean: dirtiness lives in L1
// until eviction) and handles the displaced victim. Like fillL1, every
// caller follows an L2 miss on the line.
//
//lint:hotpath
func (s *System) fillL2(core int, pa uint64, t uint64) {
	sanCheckAbsent(s.l2[core], core, pa)
	v := s.l2[core].Fill(pa, false)
	if v.Valid {
		s.handleL2Victim(core, v, t)
	}
}

// handleL2Victim processes an L2 eviction: the L1 copy is shot down to
// preserve L1 subset of L2 (its dirtiness folds into the victim), the
// directory releases the core's copy, and dirty data is written back to
// the LLC — the write-back half of the paper's ReRAM write traffic.
//
//lint:hotpath
func (s *System) handleL2Victim(core int, v cacheVictim, t uint64) {
	dirty := v.Dirty
	if _, d1 := s.l1[core].Invalidate(v.Addr); d1 {
		dirty = true
	}
	line := v.Addr &^ s.lineMask
	s.dir.Release(line, core)
	if !dirty {
		return
	}
	s.counters[core].Writebacks++
	mbv := s.tlbs[core].MappingBit(v.Addr)
	res := s.llc.Access(v.Addr, core, mbv, true)
	if res.Hit && res.NumProbes == 2 {
		// Same MBV re-learn as the load path: the write-back found the line
		// at the fallback mapping.
		s.tlbs[core].SetMappingBit(v.Addr, !mbv)
	}
	tile := s.tileOf(core)
	if res.Hit {
		// Posted write: occupies the mesh and the ReRAM bank (writes are
		// slow) but nobody waits on it.
		arr := s.mesh.DataTraverse(tile, res.Bank, t)
		s.llc.BankService(res.Bank, arr, true)
		return
	}
	// The LLC no longer holds the line (evicted while the L2 copy lived
	// on): write-allocate it back using the mapping the MBV remembers.
	fill := s.llc.Fill(v.Addr, core, mbv, true)
	arr := s.mesh.DataTraverse(tile, fill.Bank, t)
	s.llc.BankService(fill.Bank, arr, true)
	s.handleLLCVictim(fill.Victim, t)
	if s.cfg.LLC.Policy == nuca.ReNUCA {
		s.tlbs[core].SetMappingBit(v.Addr, mbv)
	}
}

// handleLLCVictim processes an LLC eviction: inclusive shootdown of upper-
// level copies, posted DRAM write-back of dirty data, and — under Re-NUCA —
// resetting the owning core's MBV bit (Section IV-C).
//
//lint:hotpath
func (s *System) handleLLCVictim(v cacheVictim, t uint64) {
	if !v.Valid {
		return
	}
	line := v.Addr &^ s.lineMask
	holders, _ := s.dir.Shootdown(line)
	dirty := v.Dirty
	for m := holders; m != 0; m &= m - 1 {
		h := bits.TrailingZeros64(m)
		if _, d := s.l1[h].Invalidate(line); d {
			dirty = true
		}
		if _, d := s.l2[h].Invalidate(line); d {
			dirty = true
		}
	}
	if dirty {
		s.mem.Access(v.Addr, t, true) // posted
	}
	if s.cfg.LLC.Policy == nuca.ReNUCA {
		s.tlbs[s.coreOf(v.Addr)].ClearMappingBit(v.Addr)
	}
}

// cacheVictim is the eviction record produced by the cache model.
type cacheVictim = cache.Victim
