package nuca

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/rram"
	"repro/internal/stats"
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
	// QueueModel replaces the next-free-timestamp approximation of bank
	// contention with a real per-bank FIFO queue: every request reserves
	// the data array for its occupancy, so reads queue behind outstanding
	// writes (and vice versa) with no slip window — arbitrarily deep
	// backlogs are charged in full. It also arms the sniper-style
	// op-history transition counters (Stats.Queue RAR/RAW/WAR/WAW) and
	// per-bank service-latency histograms (ServiceStats). Disabled, the
	// legacy windowed model runs and timing is byte-identical to the
	// pre-queue simulator.
	QueueModel bool
	// BankContentionWindow bounds how far the legacy (QueueModel=false)
	// model lets a request wait for a busy bank, mirroring
	// noc.ContentionWindow: a request arriving while the bank is busy
	// further in the future than the window slips through uncharged (and
	// is counted in Stats.Queue.Slipped so the shortcut is visible).
	// Zero means the historical default of 64 cycles. Ignored by the
	// queue model, which never slips.
	BankContentionWindow uint32
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

// DefaultConfig returns Table I's LLC configuration with the S-NUCA policy.
func DefaultConfig() Config {
	return Config{
		Policy:         SNUCA,
		NumBanks:       16,
		BankBytes:      2 << 20,
		Ways:           16,
		LineBytes:      64,
		MeshWidth:      4,
		MeshHeight:     4,
		BankLatency:    100,
		WriteLatency:   100,
		BankOccupancy:  4,
		WriteOccupancy: 20,
		DirLatency:     250,

		QueueModel:           false,
		BankContentionWindow: 64,

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

// QueueStats counts bank-queue behaviour. The wait/queued counters and the
// op-history transitions are only advanced by the queue model
// (Config.QueueModel); Slipped is the legacy model's honesty counter — how
// many busy-bank requests were served uncharged because the bank's
// next-free time lay beyond the contention window.
type QueueStats struct {
	Slipped uint64 // legacy model: uncharged busy-bank requests

	ReadQueued      uint64 // reads that found their bank busy and waited
	WriteQueued     uint64
	ReadWaitCycles  uint64 // cycles reads spent queued before the array
	WriteWaitCycles uint64

	// Op-history transition counts per line address, sniper-style: the
	// second letter is the previous operation on the line, the first the
	// current one (RAW = read arriving after a write). RAW/WAR are the
	// paper-critical pair — reads colliding with ReRAM's slow writes.
	RAR uint64
	RAW uint64
	WAR uint64
	WAW uint64
}

// BankServiceStats holds one bank's service-latency distributions under
// the queue model: the full request-to-data time (queue wait + array
// latency) of every read and write the bank served.
type BankServiceStats struct {
	Read  stats.Histogram
	Write stats.Histogram
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
	dir   map[uint64]int // NaiveWL: line address -> bank
	stats Stats

	// Intra-bank wear-leveling remap state (IntraBankWL).
	rotOffset  []uint64
	rotCounter []uint64
	frames     uint64

	// bankFree serialises bank accesses: the next cycle each ReRAM bank
	// can accept a request. Managed by the simulator through BankService.
	// Under the queue model it is the exact tail of the bank's FIFO; under
	// the legacy model it is the windowed approximation.
	bankFree []uint64

	// Queue-model state: the hoisted QueueModel flag and contention
	// window, the per-line-address last-operation map feeding the
	// RAR/RAW/WAR/WAW transition counters, and the per-bank service
	// histograms. lastOp and svc are non-nil iff the queue model is on.
	queue  bool
	window uint64
	lastOp map[uint64]uint8
	svc    []BankServiceStats

	san sanState

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

// New builds the LLC. wear must be configured with matching bank count and
// frames per bank.
func New(cfg Config, wear *rram.Wear) (*LLC, error) {
	return NewWindowed(cfg, wear, nil, nil)
}

// BackingLines validates cfg's bank geometry and returns the total number
// of line frames across all banks — the exact length of the cache.Backing
// window NewWindowed requires.
func BackingLines(cfg Config) (uint64, error) {
	if cfg.NumBanks <= 0 || cfg.NumBanks&(cfg.NumBanks-1) != 0 {
		return 0, fmt.Errorf("nuca: %d banks must be a positive power of two", cfg.NumBanks)
	}
	per, err := cache.BackingLines(BankConfig(cfg, 0))
	if err != nil {
		return 0, err
	}
	return uint64(cfg.NumBanks) * per, nil
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

// NewWindowed is New adopting externally-owned state windows: frames must
// be nil (each bank allocates privately, exactly New's behaviour) or hold
// BackingLines(cfg) line frames, split bank-major across the NumBanks bank
// caches; bankFree must be nil or hold NumBanks bank-free timestamps,
// zeroed on adoption. The windowed caches reset their sub-windows
// themselves, so a dirty window behaves like a fresh allocation.
func NewWindowed(cfg Config, wear *rram.Wear, frames cache.Backing, bankFree []uint64) (*LLC, error) {
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
	linesPerBank := cfg.BankBytes / cfg.LineBytes
	if frames != nil && uint64(len(frames)) != uint64(cfg.NumBanks)*linesPerBank {
		return nil, fmt.Errorf("nuca: frame window holds %d lines, geometry needs %d",
			len(frames), uint64(cfg.NumBanks)*linesPerBank)
	}
	if bankFree != nil && len(bankFree) != cfg.NumBanks {
		return nil, fmt.Errorf("nuca: bank-free window holds %d stamps, geometry needs %d",
			len(bankFree), cfg.NumBanks)
	}
	l := &LLC{cfg: cfg, wear: wear}
	for b := 0; b < cfg.NumBanks; b++ {
		var win cache.Backing
		if frames != nil {
			win = frames[uint64(b)*linesPerBank : uint64(b+1)*linesPerBank]
		}
		c, err := cache.NewWindowed(BankConfig(cfg, b), win)
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
	if cfg.Policy == NaiveWL {
		l.dir = make(map[uint64]int)
	}
	l.frames = linesPerBank
	if bankFree == nil {
		bankFree = make([]uint64, cfg.NumBanks)
	} else {
		clear(bankFree)
	}
	l.bankFree = bankFree
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
	if cfg.BankContentionWindow == 0 {
		l.cfg.BankContentionWindow = 64
	}
	l.queue = cfg.QueueModel
	l.window = uint64(l.cfg.BankContentionWindow)
	if cfg.QueueModel {
		l.lastOp = make(map[uint64]uint8)
		l.svc = make([]BankServiceStats, cfg.NumBanks)
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

// ResetStats zeroes aggregate, per-bank, service-histogram and wear
// counters (warmup boundary). Timing state — bankFree tails and the
// op-history map — survives: the banks stay busy across the boundary just
// as the NoC links do.
func (l *LLC) ResetStats() {
	l.stats = Stats{}
	for _, b := range l.banks {
		b.ResetStats()
	}
	for i := range l.svc {
		l.svc[i] = BankServiceStats{}
	}
	l.wear.Reset()
}

func (l *LLC) lineAddr(addr uint64) uint64 { return addr &^ (l.cfg.LineBytes - 1) }

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
// (Naive's directory says the line is absent).
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
		if b, ok := l.dir[l.lineAddr(addr)]; ok {
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
	if l.dir != nil {
		if victim.Valid {
			delete(l.dir, l.lineAddr(victim.Addr))
		}
		l.dir[l.lineAddr(addr)] = bank
	}
	return FillResult{Bank: bank, Frame: frame, Victim: victim}
}

// Contains reports whether addr is resident in any bank and where
// (diagnostics and invariant checks; does not disturb recency or stats).
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

// BankService charges one bank access to addr starting no earlier than
// start: the request waits for the bank, occupies its data array for the
// read/write occupancy, and the data is available after the read or write
// latency. It returns the completion cycle.
//
// Under the queue model (Config.QueueModel) the bank is a real FIFO: a
// request always begins at max(start, bank tail), however deep the
// backlog, so reads pay in full for colliding with in-flight ReRAM
// writes. Wait cycles, op-history transitions on addr's line and the
// service-time histogram are recorded as side effects.
//
// The legacy model only waits within BankContentionWindow cycles (see
// package noc for why single next-free timestamps need a window); a
// request arriving while the bank is busy beyond the window slips through
// uncharged, counted in Stats.Queue.Slipped.
//
//lint:hotpath
func (l *LLC) BankService(bank int, addr, start uint64, write bool) uint64 {
	occ, lat := l.readOcc, l.readLat
	if write {
		occ, lat = l.writeOcc, l.writeLat
	}
	begin := start
	if l.queue {
		if free := l.bankFree[bank]; free > begin {
			begin = free
			if write {
				l.stats.Queue.WriteQueued++
				l.stats.Queue.WriteWaitCycles += free - start
			} else {
				l.stats.Queue.ReadQueued++
				l.stats.Queue.ReadWaitCycles += free - start
			}
		}
		l.bankFree[bank] = begin + occ
		l.recordOpHistory(addr, write)
		complete := begin + lat
		if write {
			l.svc[bank].Write.Observe(complete - start)
		} else {
			l.svc[bank].Read.Observe(complete - start)
		}
		l.sanCheckBankService(bank, start, begin, occ)
		return complete
	}
	if free := l.bankFree[bank]; free > begin {
		if free-begin <= l.window {
			begin = free
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

// recordOpHistory classifies the transition from the previous operation on
// addr's line to this one (sniper's rar/war/raw/waw counters) and records
// the new last operation. Only called under the queue model.
//
//lint:hotpath
func (l *LLC) recordOpHistory(addr uint64, write bool) {
	la := addr >> l.lineShift
	const (
		opRead  = 1
		opWrite = 2
	)
	switch prev := l.lastOp[la]; {
	case prev == 0:
		// First operation on the line: no transition.
	case write && prev == opWrite:
		l.stats.Queue.WAW++
	case write: // prev == opRead
		l.stats.Queue.WAR++
	case prev == opWrite:
		l.stats.Queue.RAW++
	default:
		l.stats.Queue.RAR++
	}
	if write {
		l.lastOp[la] = opWrite
	} else {
		l.lastOp[la] = opRead
	}
}

// ServiceStats returns a copy of the per-bank service-latency histograms,
// or nil when the queue model is disabled.
func (l *LLC) ServiceStats() []BankServiceStats {
	if l.svc == nil {
		return nil
	}
	out := make([]BankServiceStats, len(l.svc))
	copy(out, l.svc)
	return out
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
