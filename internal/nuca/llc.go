package nuca

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/rram"
)

// Config sizes the LLC and selects its policy. The defaults in
// DefaultConfig are Table I's: 16 banks x 2MB, 16-way, 64B lines, 100-cycle
// bank access, on a 4x4 mesh.
type Config struct {
	Policy     Policy
	NumBanks   int
	BankBytes  uint64
	Ways       int
	LineBytes  uint64
	MeshWidth  int
	MeshHeight int
	// BankLatency is the ReRAM bank read-access latency (Table I: 100
	// cycles). WriteLatency is the array write time — ReRAM writes are
	// slower than reads (the paper's Section I motivation); Table I's
	// single figure is used for both by default, and the write-latency
	// ablation sweeps the asymmetry.
	BankLatency  uint32
	WriteLatency uint32
	// BankOccupancy/WriteOccupancy are the cycles a bank stays busy per
	// read/write before it can accept the next request (reads are
	// pipelined; writes hold the array longer).
	BankOccupancy  uint32
	WriteOccupancy uint32
	// DirLatency is the directory-lookup latency the Naive oracle pays on
	// every access before it can locate (or place) a line. Section III-A
	// argues this directory is what makes the scheme infeasible: locating
	// any of 512K lines requires a multi-megabyte structure whose lookup
	// and update are comparable to a large cache access. This cost is why
	// the paper's Naive scheme loses ~21% IPC against S-NUCA despite its
	// perfect wear-leveling.
	DirLatency uint32

	// IntraBankWL enables the i2wap-style intra-bank wear-leveling
	// extension the paper's related-work section calls complementary
	// (Section VI): a remap layer between a bank's logical frame index and
	// its physical ReRAM row rotates by one position every
	// IntraBankPeriod writes to the bank, spreading hot frames' writes
	// over the whole bank. It levels wear WITHIN banks (improving the
	// first-failure lifetime) and is orthogonal to the inter-bank leveling
	// the NUCA policies provide.
	IntraBankWL     bool
	IntraBankPeriod uint64
}

// WriteOccupancyDivisor ties a bank's write occupancy to its array write
// latency: a write holds the bank WriteLatency/WriteOccupancyDivisor
// cycles before the bank accepts the next request (20 of Table I's 100).
// DefaultConfig derives its WriteOccupancy this way, and the write-latency
// knob (core.Options.ReRAMWriteLatency) rescales it with the latency it
// sets, so slower writes hold the array proportionally longer.
const WriteOccupancyDivisor = 5

// BankContentionWindow bounds how long a request waits for a busy bank,
// mirroring noc.ContentionWindow. Each bank keeps one next-free timestamp,
// and walks reserve banks at their future traversal time, so a bank busy
// beyond the window is usually busy with a request that arrives later than
// this one; charging that wait would bill an earlier request for a later
// one's reservation. Such a request slips through uncharged and is counted
// in Stats.Queue.Slipped.
const BankContentionWindow = 64

// DefaultConfig returns Table I's LLC configuration with the S-NUCA policy.
func DefaultConfig() Config {
	const bankLatency = 100
	return Config{
		Policy:         SNUCA,
		NumBanks:       16,
		BankBytes:      2 << 20,
		Ways:           16,
		LineBytes:      64,
		MeshWidth:      4,
		MeshHeight:     4,
		BankLatency:    bankLatency,
		WriteLatency:   bankLatency,
		BankOccupancy:  4,
		WriteOccupancy: bankLatency / WriteOccupancyDivisor,
		DirLatency:     250,

		IntraBankWL:     false,
		IntraBankPeriod: 64,
	}
}

// Stats aggregates LLC-level behaviour across banks.
type Stats struct {
	ReadHits          uint64
	ReadMisses        uint64
	Writebacks        uint64 // L2 dirty evictions received
	WritebackHits     uint64
	WritebackFills    uint64 // write-backs that re-allocated the line
	Fills             uint64
	FallbackProbes    uint64 // Re-NUCA secondary-bank probes
	FallbackHits      uint64 // ... that found the line
	CriticalFills     uint64
	NonCriticalFills  uint64
	WritesCritical    uint64 // LLC writes (fills+writebacks) to critical lines
	WritesNonCritical uint64
	Queue             QueueStats
}

// QueueStats counts the bank contention BankService charges and drops.
// The wait/queued counters cover requests that found their bank busy and
// waited for it within BankContentionWindow; Slipped counts the busy-bank
// requests served uncharged because the bank's next-free time lay beyond
// the window.
type QueueStats struct {
	Slipped uint64 // uncharged busy-bank requests

	ReadQueued      uint64 // reads that found their bank busy and waited
	WriteQueued     uint64
	ReadWaitCycles  uint64 // cycles reads spent waiting before the array
	WriteWaitCycles uint64
}

// Add sums o into s field by field; suites fold per-workload LLC counters
// with it. TestStatsAddSumsEveryCounter fails by field name if a counter is
// added to Stats but not here.
func (s *Stats) Add(o Stats) {
	s.ReadHits += o.ReadHits
	s.ReadMisses += o.ReadMisses
	s.Writebacks += o.Writebacks
	s.WritebackHits += o.WritebackHits
	s.WritebackFills += o.WritebackFills
	s.Fills += o.Fills
	s.FallbackProbes += o.FallbackProbes
	s.FallbackHits += o.FallbackHits
	s.CriticalFills += o.CriticalFills
	s.NonCriticalFills += o.NonCriticalFills
	s.WritesCritical += o.WritesCritical
	s.WritesNonCritical += o.WritesNonCritical
	s.Queue.Add(o.Queue)
}

// Add sums o into q field by field.
func (q *QueueStats) Add(o QueueStats) {
	q.Slipped += o.Slipped
	q.ReadQueued += o.ReadQueued
	q.WriteQueued += o.WriteQueued
	q.ReadWaitCycles += o.ReadWaitCycles
	q.WriteWaitCycles += o.WriteWaitCycles
}

// AccessResult reports a lookup: which banks were probed in order, and
// where the line was found.
type AccessResult struct {
	Hit       bool
	Bank      int // bank that hit, -1 on miss
	Probes    [2]int
	NumProbes int
	Frame     uint64 // frame touched on a hit
}

// FillResult reports an installation.
type FillResult struct {
	Bank   int
	Frame  uint64
	Victim cache.Victim
}

// LLC is the banked ReRAM last-level cache under one of the five policies.
// Not safe for concurrent use.
type LLC struct {
	cfg   Config
	banks []*cache.Cache
	wear  *rram.Wear
	rmap  *RNUCAMap
	stats Stats

	// Intra-bank wear-leveling remap state (IntraBankWL).
	rotOffset  []uint64
	rotCounter []uint64
	frames     uint64

	// bankFree serialises bank accesses: the next cycle each ReRAM bank
	// can accept a request. Managed by the simulator through BankService.
	bankFree []uint64

	// Widened copies of the read/write service parameters, hoisted out of
	// BankService (called at least once per LLC access and write-back).
	readOcc, readLat   uint64
	writeOcc, writeLat uint64

	// Hoisted geometry for the per-access mapping path: line-address shift
	// and bank masks replace divides/mods by the power-of-two-validated
	// LineBytes and NumBanks.
	lineShift    uint
	snucaMask    uint64 // NumBanks-1
	coreBankMask int    // NumBanks-1, int-typed for the Private mapping
}

// BankConfig returns the cache configuration of LLC bank b.
func BankConfig(cfg Config, b int) cache.Config {
	return cache.Config{
		Name:      fmt.Sprintf("L3.bank%d", b),
		SizeBytes: cfg.BankBytes,
		Ways:      cfg.Ways,
		LineBytes: cfg.LineBytes,
		Latency:   cfg.BankLatency,
	}
}

// New builds the LLC. wear must be configured with matching bank count and
// frames per bank.
func New(cfg Config, wear *rram.Wear) (*LLC, error) {
	if !slices.Contains(Policies(), cfg.Policy) {
		return nil, fmt.Errorf("nuca: unknown policy %d", cfg.Policy)
	}
	if cfg.NumBanks <= 0 || cfg.NumBanks&(cfg.NumBanks-1) != 0 {
		return nil, fmt.Errorf("nuca: %d banks must be a positive power of two", cfg.NumBanks)
	}
	if cfg.MeshWidth*cfg.MeshHeight != cfg.NumBanks {
		return nil, fmt.Errorf("nuca: mesh %dx%d does not hold %d banks",
			cfg.MeshWidth, cfg.MeshHeight, cfg.NumBanks)
	}
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("nuca: line size %d not a power of two", cfg.LineBytes)
	}
	if wear == nil {
		return nil, fmt.Errorf("nuca: nil wear tracker")
	}
	wc := wear.Config()
	if wc.Banks != cfg.NumBanks || wc.FramesPerBank != cfg.BankBytes/cfg.LineBytes {
		return nil, fmt.Errorf("nuca: wear tracker geometry (%d banks x %d frames) does not match LLC (%d x %d)",
			wc.Banks, wc.FramesPerBank, cfg.NumBanks, cfg.BankBytes/cfg.LineBytes)
	}
	l := &LLC{cfg: cfg, wear: wear}
	for b := 0; b < cfg.NumBanks; b++ {
		c, err := cache.New(BankConfig(cfg, b))
		if err != nil {
			return nil, err
		}
		l.banks = append(l.banks, c)
	}
	if cfg.Policy == RNUCA || cfg.Policy == ReNUCA {
		rm, err := NewRNUCAMap(cfg.MeshWidth, cfg.MeshHeight, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		l.rmap = rm
	}
	l.frames = cfg.BankBytes / cfg.LineBytes
	l.bankFree = make([]uint64, cfg.NumBanks)
	if cfg.WriteLatency == 0 {
		l.cfg.WriteLatency = cfg.BankLatency
	}
	if cfg.BankOccupancy == 0 {
		l.cfg.BankOccupancy = 1
	}
	if cfg.WriteOccupancy == 0 {
		l.cfg.WriteOccupancy = l.cfg.BankOccupancy
	}
	if cfg.IntraBankWL {
		if cfg.IntraBankPeriod == 0 {
			return nil, fmt.Errorf("nuca: intra-bank wear-leveling needs a positive period")
		}
		l.rotOffset = make([]uint64, cfg.NumBanks)
		l.rotCounter = make([]uint64, cfg.NumBanks)
	}
	l.readOcc = uint64(l.cfg.BankOccupancy)
	l.readLat = uint64(l.cfg.BankLatency)
	l.writeOcc = uint64(l.cfg.WriteOccupancy)
	l.writeLat = uint64(l.cfg.WriteLatency)
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		l.lineShift++
	}
	l.snucaMask = uint64(cfg.NumBanks - 1)
	l.coreBankMask = cfg.NumBanks - 1
	return l, nil
}

// wearFrame maps a logical frame to its physical ReRAM row, applying the
// rotating intra-bank remap when enabled, and advances the rotation.
//
//lint:hotpath
func (l *LLC) wearFrame(bank int, frame uint64) uint64 {
	if l.rotOffset == nil {
		return frame
	}
	phys := frame + l.rotOffset[bank]
	if phys >= l.frames {
		phys -= l.frames
	}
	l.rotCounter[bank]++
	if l.rotCounter[bank] >= l.cfg.IntraBankPeriod {
		l.rotCounter[bank] = 0
		l.rotOffset[bank]++
		if l.rotOffset[bank] >= l.frames {
			l.rotOffset[bank] = 0
		}
	}
	return phys
}

// MustNew is New that panics on error.
func MustNew(cfg Config, wear *rram.Wear) *LLC {
	l, err := New(cfg, wear)
	if err != nil {
		panic(err)
	}
	return l
}

// Config returns the construction parameters.
func (l *LLC) Config() Config { return l.cfg }

// Stats returns a copy of the aggregate counters.
func (l *LLC) Stats() Stats { return l.stats }

// BankStats returns the per-bank cache counters.
func (l *LLC) BankStats(bank int) cache.Stats { return l.banks[bank].Stats() }

// Wear exposes the wear tracker.
func (l *LLC) Wear() *rram.Wear { return l.wear }

// ResetStats zeroes aggregate, per-bank and wear counters (warmup
// boundary). The bankFree timing state survives: the banks stay busy
// across the boundary just as the NoC links do.
func (l *LLC) ResetStats() {
	l.stats = Stats{}
	for _, b := range l.banks {
		b.ResetStats()
	}
	l.wear.Reset()
}

// snucaBank and rnucaBank are the two primitive mappings. snucaBank is the
// shift/mask form of the exported SNUCABank, equivalent because LineBytes
// and NumBanks are power-of-two-validated at construction.
//
//lint:hotpath
func (l *LLC) snucaBank(addr uint64) int {
	return int((addr >> l.lineShift) & l.snucaMask)
}

//lint:hotpath
func (l *LLC) rnucaBank(addr uint64, core int) int {
	return l.rmap.Bank(addr, core)
}

// probePlan computes the ordered banks to probe for addr requested by core.
// mbvCritical is the enhanced-TLB mapping bit (only consulted by Re-NUCA).
// The returned count is 0 when the policy can prove a miss without probing
// (Naive's oracle finds the line in no bank).
//
//lint:hotpath
func (l *LLC) probePlan(addr uint64, core int, mbvCritical bool) (probes [2]int, n int) {
	switch l.cfg.Policy {
	case SNUCA:
		probes[0] = l.snucaBank(addr)
		return probes, 1
	case RNUCA:
		probes[0] = l.rnucaBank(addr, core)
		return probes, 1
	case PrivateLLC:
		probes[0] = core & l.coreBankMask
		return probes, 1
	case NaiveWL:
		if b, ok := l.Contains(addr); ok {
			probes[0] = b
			return probes, 1
		}
		return probes, 0
	case ReNUCA:
		s, r := l.snucaBank(addr), l.rnucaBank(addr, core)
		primary, secondary := s, r
		if mbvCritical {
			primary, secondary = r, s
		}
		probes[0] = primary
		if secondary != primary {
			probes[1] = secondary
			return probes, 2
		}
		return probes, 1
	default:
		panic(fmt.Sprintf("nuca: unknown policy %d", l.cfg.Policy))
	}
}

// Access looks up addr for core. write marks an incoming L2 dirty
// write-back (which, on a hit, writes the ReRAM frame and wears it).
// critical carries the line's criticality context — the MBV bit for
// lookups/write-backs — used for Re-NUCA probe ordering and for the
// writes-by-criticality split the paper's Figure 9 reports.
//
// The probe sequence stops at the first hit. For Re-NUCA the second probe
// is the fallback that recovers lines whose MBV bit was lost to a TLB
// eviction; it is counted so the experiment harness can report how rare it
// is.
//
//lint:hotpath
func (l *LLC) Access(addr uint64, core int, critical, write bool) AccessResult {
	probes, n := l.probePlan(addr, core, critical)
	res := AccessResult{Bank: -1, Probes: probes, NumProbes: n}
	for i := 0; i < n; i++ {
		b := probes[i]
		if i > 0 {
			l.stats.FallbackProbes++
		}
		hit, frame := l.banks[b].LookupFrame(addr, write)
		if hit {
			if i > 0 {
				l.stats.FallbackHits++
			}
			res.Hit = true
			res.Bank = b
			res.NumProbes = i + 1
			res.Frame = frame
			if write {
				l.wear.RecordWrite(b, l.wearFrame(b, frame))
				l.recordWriteCriticality(critical)
			}
			break
		}
	}
	if write {
		l.stats.Writebacks++
		if res.Hit {
			l.stats.WritebackHits++
		}
	} else {
		if res.Hit {
			l.stats.ReadHits++
		} else {
			l.stats.ReadMisses++
		}
	}
	return res
}

func (l *LLC) recordWriteCriticality(critical bool) {
	if critical {
		l.stats.WritesCritical++
	} else {
		l.stats.WritesNonCritical++
	}
}

// FillBank returns the bank a new line for addr/core/critical would be
// installed into, without installing it (used by the simulator for timing).
//
//lint:hotpath
func (l *LLC) FillBank(addr uint64, core int, critical bool) int {
	switch l.cfg.Policy {
	case SNUCA:
		return l.snucaBank(addr)
	case RNUCA:
		return l.rnucaBank(addr, core)
	case PrivateLLC:
		return core & l.coreBankMask
	case NaiveWL:
		// Perfect wear-leveling: the bank with the fewest writes so far
		// (Section III-A, "the cache controller chooses the bank with the
		// smallest number of writes").
		best, bestW := 0, l.wear.BankWrites(0)
		for b := 1; b < l.cfg.NumBanks; b++ {
			if w := l.wear.BankWrites(b); w < bestW {
				best, bestW = b, w
			}
		}
		return best
	case ReNUCA:
		if critical {
			return l.rnucaBank(addr, core)
		}
		return l.snucaBank(addr)
	default:
		panic(fmt.Sprintf("nuca: unknown policy %d", l.cfg.Policy))
	}
}

// Fill installs addr into the policy-chosen bank after an LLC miss (or a
// write-back whose line was already evicted, dirty=true). The caller must
// have established the line is absent (Access returned a miss). The fill
// itself writes the ReRAM frame and is charged to the wear model; the
// displaced victim, if any, is returned so the simulator can write back
// dirty data, shoot down upper-level copies, and clear MBV bits.
//
//lint:hotpath
func (l *LLC) Fill(addr uint64, core int, critical, dirty bool) FillResult {
	l.sanCheckFill(addr)
	bank := l.FillBank(addr, core, critical)
	victim, frame := l.banks[bank].FillFrame(addr, dirty)
	l.wear.RecordWrite(bank, l.wearFrame(bank, frame))
	l.recordWriteCriticality(critical)
	l.stats.Fills++
	if dirty {
		l.stats.WritebackFills++
	}
	if critical {
		l.stats.CriticalFills++
	} else {
		l.stats.NonCriticalFills++
	}
	return FillResult{Bank: bank, Frame: frame, Victim: victim}
}

// Contains reports whether addr is resident in any bank and where, without
// disturbing recency or stats. It is also the Naive oracle: every policy
// keeps at most one copy of a line, so searching addr's set in every bank's
// tag array finds exactly the bank a line-to-bank directory would name. The
// simulator still charges that directory's DirLatency; only the host keeps
// no per-line map.
//
//lint:hotpath
func (l *LLC) Contains(addr uint64) (bank int, ok bool) {
	for b, c := range l.banks {
		if c.Peek(addr) {
			return b, true
		}
	}
	return -1, false
}

// ResidentBanks returns every bank holding addr; the "at most one copy"
// invariant demands the result never exceeds length 1.
func (l *LLC) ResidentBanks(addr uint64) []int {
	var out []int
	for b, c := range l.banks {
		if c.Peek(addr) {
			out = append(out, b)
		}
	}
	return out
}

// BankService charges one access to bank starting no earlier than start:
// the request waits for the bank, occupies its data array for the
// read/write occupancy, and the data is available after the read or write
// latency. It returns the completion cycle.
//
// A request waits only within BankContentionWindow cycles of its arrival,
// and the wait is counted in Stats.Queue; a request arriving while the
// bank is busy beyond the window slips through uncharged, counted in
// Stats.Queue.Slipped.
//
//lint:hotpath
func (l *LLC) BankService(bank int, start uint64, write bool) uint64 {
	occ, lat := l.readOcc, l.readLat
	if write {
		occ, lat = l.writeOcc, l.writeLat
	}
	begin := start
	if free := l.bankFree[bank]; free > begin {
		if free-begin <= BankContentionWindow {
			begin = free
			if write {
				l.stats.Queue.WriteQueued++
				l.stats.Queue.WriteWaitCycles += free - start
			} else {
				l.stats.Queue.ReadQueued++
				l.stats.Queue.ReadWaitCycles += free - start
			}
		} else {
			l.stats.Queue.Slipped++
		}
	}
	if begin+occ > l.bankFree[bank] {
		l.bankFree[bank] = begin + occ
	}
	l.sanCheckBankService(bank, start, begin, occ)
	return begin + lat
}

// HomeBank returns the address-interleaved home tile of a line, where the
// Naive oracle's directory slice for that line lives.
func (l *LLC) HomeBank(addr uint64) int { return l.snucaBank(addr) }

// BankLatency returns the configured ReRAM bank access latency.
func (l *LLC) BankLatency() uint32 { return l.cfg.BankLatency }

// DirLatency returns the Naive directory lookup latency (0 for others).
func (l *LLC) DirLatency() uint32 {
	if l.cfg.Policy == NaiveWL {
		return l.cfg.DirLatency
	}
	return 0
}
