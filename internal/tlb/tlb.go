// Package tlb implements the paper's enhanced TLB (Section IV-C): a
// conventional set-associative TLB whose entries are augmented with a
// Mapping Bit Vector (MBV) — one bit per cache line of the page (64 bits
// for a 4KB page of 64B lines). The bit records which NUCA mapping function
// allocated the line in the LLC: 0 = S-NUCA (non-critical), 1 = R-NUCA
// (critical). Because every load/store consults the TLB early in the memory
// pipeline, the mapping choice is known before the LLC is accessed and no
// extra lookup structure sits on the critical path.
//
// The paper leaves one corner unstated: when a TLB entry is evicted, its
// MBV is lost even though lines of that page may still live in the LLC at
// R-NUCA positions. A reloaded entry starts with an all-zero MBV, so the
// first access to such a line probes the S-NUCA bank, misses, and must fall
// back to the R-NUCA probe. This package counts the lost bits
// (Stats.LostMappingBits); the simulator implements and charges the
// two-probe fallback.
package tlb

import (
	"fmt"
	"math/bits"
)

// Config parameterises the TLB.
type Config struct {
	Entries     int
	Ways        int
	PageBytes   uint64
	LineBytes   uint64
	MissLatency uint32 // page-walk latency charged by the simulator
}

// DefaultConfig matches the paper: 64 entries, 8-way set-associative, 4KB
// pages, 64B lines (so a 64-bit MBV), and a 30-cycle walk.
func DefaultConfig() Config {
	return Config{Entries: 64, Ways: 8, PageBytes: 4096, LineBytes: 64, MissLatency: 30}
}

// Stats accumulates TLB behaviour counters.
type Stats struct {
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	LostMappingBits uint64 // set MBV bits discarded by entry eviction
	BitSets         uint64 // MBV bits set to R-NUCA
	BitClears       uint64 // MBV bits reset on LLC eviction
	DroppedUpdates  uint64 // MBV updates for pages no longer resident
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// entry is one TLB slot. key holds the virtual page number plus one, so
// the zero value is an empty slot and a freshly allocated (or cleared)
// entry array is an empty TLB; page numbers are addresses shifted right by
// pageShift, so vpn+1 never wraps. LRU stamps are unique (tick increments
// per touch), so 64 bits never wrap.
type entry struct {
	key uint64 // vpn+1; 0 = empty
	mbv uint64
	lru uint64
}

func (e entry) valid() bool { return e.key != 0 }

// TLB is one core's enhanced TLB (the simulator instantiates one per core,
// standing in for the paper's L1D TLB; instruction fetch is not modelled).
// Not safe for concurrent use.
type TLB struct {
	cfg       Config
	sets      []entry // flattened [numSets][ways]
	numSets   uint64
	setMask   uint64 // numSets-1, hoisted off the probe path
	ways      uint64 // uint64(cfg.Ways), hoisted off the probe path
	lineMask  uint64 // lines per page - 1, hoisted off the MBV path
	pageShift uint
	lineShift uint
	tick      uint64
	stats     Stats
}

// validate checks cfg's geometry and returns the derived set count.
func validate(cfg Config) (uint64, error) {
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		return 0, fmt.Errorf("tlb: %d entries not divisible into %d ways", cfg.Entries, cfg.Ways)
	}
	numSets := uint64(cfg.Entries / cfg.Ways)
	if numSets&(numSets-1) != 0 {
		return 0, fmt.Errorf("tlb: %d sets not a power of two", numSets)
	}
	if cfg.PageBytes == 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return 0, fmt.Errorf("tlb: page size %d not a power of two", cfg.PageBytes)
	}
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return 0, fmt.Errorf("tlb: line size %d not a power of two", cfg.LineBytes)
	}
	if lines := cfg.PageBytes / cfg.LineBytes; lines > 64 {
		return 0, fmt.Errorf("tlb: %d lines per page exceed the 64-bit MBV", lines)
	}
	return numSets, nil
}

// Backing is an externally-owned entry array a TLB can adopt instead of
// allocating its own (see NewWindowed). Elements are opaque outside this
// package; size one with make(tlb.Backing, n) where n comes from
// BackingEntries — typically one lane's window of a batch-wide
// struct-of-arrays allocation.
type Backing []entry

// BackingEntries validates cfg and returns the number of entry slots a TLB
// built from it holds — the exact length NewWindowed requires of a non-nil
// backing.
func BackingEntries(cfg Config) (int, error) {
	if _, err := validate(cfg); err != nil {
		return 0, err
	}
	return cfg.Entries, nil
}

// New validates cfg and builds the TLB with a self-owned entry array.
func New(cfg Config) (*TLB, error) {
	return NewWindowed(cfg, nil)
}

// NewWindowed is New adopting an externally-owned entry window: backing
// must be nil (a private array is allocated, exactly New's behaviour) or
// hold BackingEntries(cfg) slots. The window is cleared on adoption — every
// slot empty, MBV and recency reset — so a window still dirty from a
// retired simulation behaves like a fresh allocation.
func NewWindowed(cfg Config, backing Backing) (*TLB, error) {
	numSets, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	if backing == nil {
		backing = make(Backing, cfg.Entries)
	} else if len(backing) != cfg.Entries {
		return nil, fmt.Errorf("tlb: backing window holds %d entries, config needs %d",
			len(backing), cfg.Entries)
	} else {
		clear(backing)
	}
	return &TLB{
		cfg:       cfg,
		sets:      backing,
		numSets:   numSets,
		setMask:   numSets - 1,
		ways:      uint64(cfg.Ways),
		lineMask:  cfg.PageBytes/cfg.LineBytes - 1,
		pageShift: uint(bits.TrailingZeros64(cfg.PageBytes)),
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the construction parameters.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

func (t *TLB) vpn(vaddr uint64) uint64 { return vaddr >> t.pageShift }

// lineBit returns the MBV bit mask for vaddr's line within its page.
func (t *TLB) lineBit(vaddr uint64) uint64 {
	idx := (vaddr >> t.lineShift) & t.lineMask
	return 1 << idx
}

// set returns the slots of vpn's set.
func (t *TLB) set(vpn uint64) []entry {
	setBase := (vpn & t.setMask) * t.ways
	return t.sets[setBase : setBase+t.ways]
}

func (t *TLB) find(vpn uint64) *entry {
	ways := t.set(vpn)
	for i := range ways {
		if ways[i].key == vpn+1 {
			return &ways[i]
		}
	}
	return nil
}

// Translate translates vaddr and reads its line's MBV bit in one probe of
// the set. On a hit it refreshes recency and returns true with the bit as
// MappingBit reads it. On a miss it installs a fresh entry (all-zero MBV,
// so mbv is false), evicting the set's LRU entry and accounting any
// mapping bits that eviction discards, and returns false so the simulator
// can charge the walk latency.
//
//lint:hotpath
func (t *TLB) Translate(vaddr uint64) (hit, mbv bool) {
	vpn := t.vpn(vaddr)
	ways := t.set(vpn)
	for i := range ways {
		if ways[i].key == vpn+1 {
			t.tick++
			ways[i].lru = t.tick
			t.stats.Hits++
			return true, ways[i].mbv&t.lineBit(vaddr) != 0
		}
	}
	t.stats.Misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid() {
			victim = i
			goto install
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	t.stats.Evictions++
	t.stats.LostMappingBits += uint64(bits.OnesCount64(ways[victim].mbv))
install:
	t.tick++
	ways[victim] = entry{key: vpn + 1, lru: t.tick}
	return false, false
}

// MappingBit reads the MBV bit for vaddr's line: true means the line was
// allocated with R-NUCA (critical), false means S-NUCA. Pages not resident
// in the TLB report false — exactly the hardware behaviour after an entry
// reload, which is what forces the two-probe fallback.
func (t *TLB) MappingBit(vaddr uint64) bool {
	e := t.find(t.vpn(vaddr))
	return e != nil && e.mbv&t.lineBit(vaddr) != 0
}

// SetMappingBit records the mapping used for vaddr's line after an LLC
// fill: critical=true sets the bit (R-NUCA), false clears it (S-NUCA). An
// update for a page that has since left the TLB is dropped and counted.
func (t *TLB) SetMappingBit(vaddr uint64, critical bool) {
	e := t.find(t.vpn(vaddr))
	if e == nil {
		t.stats.DroppedUpdates++
		return
	}
	bit := t.lineBit(vaddr)
	if critical {
		if e.mbv&bit == 0 {
			t.stats.BitSets++
		}
		e.mbv |= bit
	} else {
		e.mbv &^= bit
	}
}

// ClearMappingBit resets the MBV bit when the line is evicted from the LLC
// (Section IV-C: "when a cache line is being evicted, the corresponding
// MBV bit needs to be reset back to 0").
func (t *TLB) ClearMappingBit(vaddr uint64) {
	e := t.find(t.vpn(vaddr))
	if e == nil {
		t.stats.DroppedUpdates++
		return
	}
	bit := t.lineBit(vaddr)
	if e.mbv&bit != 0 {
		t.stats.BitClears++
	}
	e.mbv &^= bit
}

// Resident reports whether vaddr's page is in the TLB (diagnostics).
func (t *TLB) Resident(vaddr uint64) bool { return t.find(t.vpn(vaddr)) != nil }

// OverheadBits returns the extra storage the MBV adds to this TLB in bits
// (the paper quotes 512 bytes per 64-entry TLB: 64 entries x 64 bits).
func (t *TLB) OverheadBits() uint64 {
	return uint64(t.cfg.Entries) * (t.cfg.PageBytes / t.cfg.LineBytes)
}
