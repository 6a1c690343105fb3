// Package cache implements the set-associative, write-back, write-allocate
// cache used for every level of the simulated hierarchy (L1I, L1D, private
// L2, and each LLC bank). It is a functional model with LRU replacement and
// hit/miss/eviction accounting; timing is composed by the simulator on top.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a cache. Sets must come out a power of two.
type Config struct {
	Name      string
	SizeBytes uint64
	Ways      int
	LineBytes uint64
	Latency   uint32 // access latency in cycles, carried for the simulator
}

// Stats accumulates access-level counters.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invalidates uint64
}

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Hits() + s.Misses() }

// HitRate returns hits/accesses, or 0 when the cache was never accessed.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(a)
}

// A line frame is one 32-bit word, and 0 means empty, so a freshly
// allocated (or cleared) frame array is an empty cache. With r the rank
// width of the set, ⌈log2 ways⌉ bits, a valid frame holds
//
//	(lineTag+1)<<(r+1) | dirty<<r | rank
//
// where rank is the frame's recency order among its set's valid frames: 0
// is the least recent, k-1 the most recent of k. The tag bias keeps a
// valid word nonzero and costs one value, so a tag may be at most 30-r bits
// wide (CheckTagWidth validates a geometry against an address width). A
// 16-way set is one 64-byte host cache line.
const (
	// maxWays is the most ways a cache may have: 7 rank bits.
	maxWays = 128

	// MaxTagBits is the widest line tag a frame can store, that of a
	// direct-mapped cache, whose frames carry no rank: tag+1 and the dirty
	// bit must fit the 32-bit word. A cache of more ways stores ⌈log2 ways⌉
	// fewer tag bits.
	MaxTagBits = 30

	// lowLanes has the low bit of both 32-bit lanes of a word set:
	// multiplying a frame field by it repeats the field in both lanes.
	lowLanes = 1<<32 | 1
)

// Victim describes a line displaced by Fill or removed by Invalidate.
type Victim struct {
	Addr  uint64 // byte address of the first byte of the line
	Valid bool   // false when the fill used an empty way
	Dirty bool
}

// Cache is a single set-associative cache. It is not safe for concurrent
// use: every Cache belongs to exactly one sim.System, and the parallel
// experiment harness confines each System — caches included — to a single
// worker goroutine (concurrent sweeps run disjoint Systems).
type Cache struct {
	cfg      Config
	frames   []uint32 // flattened [numSets][ways]: tag+1, dirty bit and rank; 0 = empty
	numSets  uint64
	setMask  uint64
	setBits  uint   // log2(numSets), precomputed off the probe path
	ways     uint64 // uint64(cfg.Ways), hoisted off the probe path
	lineBits uint
	tagShift uint   // r+1: the tag field's offset in a frame
	dirtyBit uint32 // 1<<r: the dirty bit
	rankMask uint32 // 1<<r - 1: the rank field
	stats    Stats
	san      sanState // occupancy-conservation counters; zero-size without the simcheck tag
}

// geometry is the validated shape of a cache configuration.
type geometry struct {
	lines    uint64
	numSets  uint64
	lineBits uint
	rankBits uint // ⌈log2 ways⌉
}

// tagBits is the widest line tag a frame of g stores.
func (g geometry) tagBits() uint { return MaxTagBits - g.rankBits }

// resolve validates cfg and derives its geometry.
func resolve(cfg Config) (geometry, error) {
	var g geometry
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return g, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Ways <= 0 || cfg.Ways > maxWays {
		return g, fmt.Errorf("cache %s: ways %d outside 1..%d", cfg.Name, cfg.Ways, maxWays)
	}
	g.lines = cfg.SizeBytes / cfg.LineBytes
	if g.lines == 0 || cfg.SizeBytes%cfg.LineBytes != 0 {
		return g, fmt.Errorf("cache %s: size %d not a multiple of line size %d", cfg.Name, cfg.SizeBytes, cfg.LineBytes)
	}
	if g.lines%uint64(cfg.Ways) != 0 {
		return g, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, g.lines, cfg.Ways)
	}
	g.numSets = g.lines / uint64(cfg.Ways)
	if g.numSets&(g.numSets-1) != 0 {
		return g, fmt.Errorf("cache %s: %d sets not a power of two", cfg.Name, g.numSets)
	}
	g.lineBits = uint(bits.TrailingZeros64(cfg.LineBytes))
	g.rankBits = uint(bits.Len(uint(cfg.Ways - 1)))
	return g, nil
}

// CheckTagWidth validates cfg's geometry and reports an error when the
// line tags of addrBits-wide addresses — the bits above the set index and
// line offset — are wider than the 30-⌈log2 ways⌉ bits a frame of cfg
// stores. A cache fed such addresses would silently alias distinct lines
// onto one tag.
func CheckTagWidth(cfg Config, addrBits uint) error {
	g, err := resolve(cfg)
	if err != nil {
		return err
	}
	offset := g.lineBits + uint(bits.TrailingZeros64(g.numSets))
	if addrBits > offset && addrBits-offset > g.tagBits() {
		return fmt.Errorf("cache %s: %d-bit addresses leave %d tag bits, more than the %d a %d-way frame stores",
			cfg.Name, addrBits, addrBits-offset, g.tagBits(), cfg.Ways)
	}
	return nil
}

// New builds a cache from cfg. It returns an error when the geometry does
// not divide evenly or set/line counts are not powers of two.
func New(cfg Config) (*Cache, error) {
	g, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	return &Cache{
		cfg:      cfg,
		frames:   make([]uint32, g.lines),
		numSets:  g.numSets,
		setMask:  g.numSets - 1,
		setBits:  uint(bits.TrailingZeros64(g.numSets)),
		ways:     uint64(cfg.Ways),
		lineBits: g.lineBits,
		tagShift: g.rankBits + 1,
		dirtyBit: 1 << g.rankBits,
		rankMask: 1<<g.rankBits - 1,
	}, nil
}

// MustNew is New that panics on error, for fixed known-good geometries.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the construction parameters.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (used at the warmup/measure boundary).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// NumSets returns the number of sets.
func (c *Cache) NumSets() uint64 { return c.numSets }

// Lines returns the total line capacity.
func (c *Cache) Lines() uint64 { return uint64(len(c.frames)) }

// SetIndex returns the set index addr maps to (exported for the intra-bank
// wear-leveling extension, which remaps sets).
func (c *Cache) SetIndex(addr uint64) uint64 {
	return (addr >> c.lineBits) & c.setMask
}

// locate returns addr's set and the tag field a frame holding addr
// carries: the line tag plus one, shifted above the dirty bit and rank.
// A frame w holds addr exactly when w&^c.low() == key.
func (c *Cache) locate(addr uint64) (set []uint32, setBase uint64, key uint32) {
	lineAddr := addr >> c.lineBits
	lineTag := lineAddr >> c.setBits
	c.sanCheckTag(addr, lineTag)
	setBase = (lineAddr & c.setMask) * c.ways
	return c.frames[setBase : setBase+c.ways], setBase, uint32(lineTag+1) << c.tagShift
}

// low masks a frame's dirty bit and rank.
func (c *Cache) low() uint32 { return c.dirtyBit | c.rankMask }

// Lookup probes for addr. On a hit it updates recency, marks the line dirty
// when write is true, and returns true. On a miss it records the miss and
// returns false without allocating; callers decide whether to Fill.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	hit, _ := c.LookupFrame(addr, write)
	return hit
}

// LookupFrame is Lookup, additionally returning the physical frame index
// (set*ways+way) touched on a hit. The LLC banks use the frame index for
// per-frame ReRAM wear accounting; frame is 0 and meaningless on a miss.
//
//lint:hotpath
func (c *Cache) LookupFrame(addr uint64, write bool) (hit bool, frame uint64) {
	set, setBase, key := c.locate(addr)
	c.sanCheckTouch(setBase)
	low := c.low()
	for i, w := range set {
		if w&^low == key {
			r := w & c.rankMask
			if r < uint32(len(set)-1) { // else already the most recent
				r += c.demoteAbove(set, r)
			}
			w = w&^c.rankMask | r
			if write {
				w |= c.dirtyBit
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			set[i] = w
			return true, setBase + uint64(i)
		}
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return false, 0
}

// demoteAbove moves every frame of a set whose rank exceeds r down one rank
// and returns how many moved. A hit on rank r then takes rank r+moved, the
// top; an invalidation of rank r closes the gap it leaves. Empty frames
// carry rank 0 and never move. It works on two frames at a time, one per
// 32-bit lane of a word, so a 16-way set takes eight steps with no
// data-dependent branch.
//
//lint:hotpath
func (c *Cache) demoteAbove(set []uint32, r uint32) (moved uint32) {
	rankBits := c.tagShift - 1
	ranks := uint64(c.rankMask) * lowLanes
	bias := uint64(c.rankMask-r) * lowLanes
	var ones uint64
	for ; len(set) >= 2; set = set[2:] {
		w, o := demoteLanes(uint64(set[0])|uint64(set[1])<<32, ranks, bias, rankBits)
		set[0], set[1] = uint32(w), uint32(w>>32)
		ones += o
	}
	if len(set) == 1 {
		w, o := demoteLanes(uint64(set[0]), ranks, bias, rankBits)
		set[0] = uint32(w)
		ones += o
	}
	return uint32(ones) + uint32(ones>>32)
}

// demoteLanes is demoteAbove on the two frames packed in w, with ranks
// holding the rank mask and bias the mask minus r in both lanes. Adding
// mask-r to a lane's rank carries into bit rankBits exactly when the rank
// exceeds r, and no sum (at most twice the mask) carries further; each
// marked lane then loses one, which a rank above 0 takes without a borrow.
// It returns the new word and a 1 in the low bit of each marked lane.
func demoteLanes(w, ranks, bias uint64, rankBits uint) (uint64, uint64) {
	ones := ((w & ranks) + bias) >> (rankBits & 63) & lowLanes
	return w - ones, ones
}

// Peek reports whether addr is present without touching recency or stats.
func (c *Cache) Peek(addr uint64) bool {
	present, _ := c.PeekDirty(addr)
	return present
}

// PeekDirty reports (present, dirty) without touching recency or stats.
func (c *Cache) PeekDirty(addr uint64) (present, dirty bool) {
	set, _, key := c.locate(addr)
	low := c.low()
	for _, w := range set {
		if w&^low == key {
			return true, w&c.dirtyBit != 0
		}
	}
	return false, false
}

// Fill installs addr (which must not already be present — callers Lookup
// first) and returns the displaced victim, if any. The new line is dirty
// when the fill is caused by a write (write-allocate) or an incoming dirty
// write-back.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	v, _ := c.FillFrame(addr, dirty)
	return v
}

// FillFrame is Fill, additionally returning the physical frame index the
// line was installed into, for per-frame ReRAM wear accounting. The line
// takes the set's first empty way, or else evicts the least recent (rank
// 0) line, and becomes the set's most recent.
//
//lint:hotpath
func (c *Cache) FillFrame(addr uint64, dirty bool) (Victim, uint64) {
	set, setBase, key := c.locate(addr)
	way := -1
	for i, w := range set {
		if w == 0 {
			way = i
			break
		}
	}
	v := Victim{}
	var rank uint32
	if way >= 0 {
		// The line joins the set's k valid lines at rank k.
		for _, w := range set {
			if w != 0 {
				rank++
			}
		}
	} else {
		// Full set: evict rank 0. Every other line moves down one rank; the
		// victim's word borrows, harmlessly, since its frame is overwritten
		// below.
		var victim uint32
		rankMask := c.rankMask
		for i, w := range set {
			if w&rankMask == 0 {
				way, victim = i, w
			}
			set[i] = w - 1
		}
		v.Valid = true
		v.Dirty = victim&c.dirtyBit != 0
		// The victim shares the incoming line's set, so its set index is the
		// shift/mask form rather than setBase/ways (ways need not be pow2).
		v.Addr = c.reconstruct(c.SetIndex(addr), uint64(victim>>c.tagShift-1))
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvicts++
		}
		rank = uint32(len(set) - 1)
	}
	w := key | rank
	if dirty {
		w |= c.dirtyBit
	}
	set[way] = w
	c.stats.Fills++
	c.sanCheckFill(setBase, v.Valid)
	return v, setBase + uint64(way)
}

// Invalidate removes addr if present and reports (present, wasDirty). Used
// for coherence back-invalidations and inclusive-eviction shootdowns.
//
//lint:hotpath
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, setBase, key := c.locate(addr)
	low := c.low()
	for i, w := range set {
		if w&^low == key {
			set[i] = 0
			c.demoteAbove(set, w&c.rankMask)
			c.stats.Invalidates++
			c.sanCheckInvalidate(setBase, true)
			return true, w&c.dirtyBit != 0
		}
	}
	c.sanCheckInvalidate(setBase, false)
	return false, false
}

// reconstruct rebuilds a line's byte address from its set and line tag.
func (c *Cache) reconstruct(set, lineTag uint64) uint64 {
	return (lineTag<<c.setBits | set) << c.lineBits
}

// Occupancy returns the number of valid lines (test/diagnostic helper).
func (c *Cache) Occupancy() uint64 {
	var n uint64
	for _, w := range c.frames {
		if w != 0 {
			n++
		}
	}
	return n
}
