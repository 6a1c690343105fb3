// Package cache implements the set-associative, write-back, write-allocate
// cache used for every level of the simulated hierarchy (L1I, L1D, private
// L2, and each LLC bank). It is a functional model with LRU replacement and
// hit/miss/eviction accounting; timing is composed by the simulator on top.
package cache

import "fmt"

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

// way is one line frame, packed to 8 bytes so an 8-way set fills one CPU
// cache line and a 16-way set two. Zero means empty in both fields, so a
// freshly allocated (or cleared) frame array is an empty cache:
//   - tag stores the line tag plus one, and 0 marks an empty frame. The
//     bias costs one value, so a tag may be at most MaxTagBits wide
//     (CheckTagWidth validates a geometry against an address width);
//   - meta holds lru<<1 | dirty, where lru is a stamp of the cache's 30-bit
//     LRU clock (see stamp). An empty frame carries meta 0.
type way struct {
	tag  uint32
	meta uint32
}

const (
	wayDirty = 1 << 0
	lruShift = 1

	// clockMax is the largest LRU stamp; the touch that would pass it
	// renormalises the cache's stamps first.
	clockMax = 1<<30 - 1

	// MaxTagBits is the widest line tag a frame can store: tag+1 must fit
	// the 32-bit tag field.
	MaxTagBits = 31
)

func (w way) valid() bool { return w.tag != 0 }
func (w way) dirty() bool { return w.meta&wayDirty != 0 }
func (w way) lru() uint32 { return w.meta >> lruShift }

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
	sets     []way // flattened [numSets][ways]
	numSets  uint64
	setMask  uint64
	setBits  uint   // log2(numSets), precomputed off the probe path
	ways     uint64 // uint64(cfg.Ways), hoisted off the probe path
	lineBits uint
	tick     uint32 // LRU clock: the newest stamp handed out, at most clockMax
	stats    Stats
	san      sanState // occupancy-conservation counters; zero-size without the simcheck tag
}

// geometry is the validated shape of a cache configuration.
type geometry struct {
	lines    uint64
	numSets  uint64
	lineBits uint
}

// resolve validates cfg and derives its geometry.
func resolve(cfg Config) (geometry, error) {
	var g geometry
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return g, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return g, fmt.Errorf("cache %s: ways %d must be positive", cfg.Name, cfg.Ways)
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
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		g.lineBits++
	}
	return g, nil
}

// CheckTagWidth validates cfg's geometry and reports an error when the
// line tags of addrBits-wide addresses — the bits above the set index and
// line offset — are wider than the MaxTagBits a frame stores. A cache fed
// such addresses would silently alias distinct lines onto one tag.
func CheckTagWidth(cfg Config, addrBits uint) error {
	g, err := resolve(cfg)
	if err != nil {
		return err
	}
	offset := g.lineBits + uint(bitsFor(g.numSets))
	if addrBits > offset && addrBits-offset > MaxTagBits {
		return fmt.Errorf("cache %s: %d-bit addresses leave %d tag bits, more than the %d a frame stores",
			cfg.Name, addrBits, addrBits-offset, MaxTagBits)
	}
	return nil
}

// Backing is an externally-owned frame array a Cache can adopt instead of
// allocating its own (see NewWindowed). Its elements are opaque outside
// this package; callers size one with make(cache.Backing, n) where n comes
// from BackingLines — typically one lane's window of a batch-wide
// struct-of-arrays allocation (internal/simbatch's state plane).
type Backing []way

// BackingLines validates cfg's geometry and returns the number of line
// frames a Cache built from it holds — the exact length of the Backing
// window NewWindowed requires.
func BackingLines(cfg Config) (uint64, error) {
	g, err := resolve(cfg)
	if err != nil {
		return 0, err
	}
	return g.lines, nil
}

// New builds a cache from cfg with a self-owned frame array. It returns an
// error when the geometry does not divide evenly or set/line counts are not
// powers of two.
func New(cfg Config) (*Cache, error) {
	return NewWindowed(cfg, nil)
}

// NewWindowed is New adopting an externally-owned frame window: backing
// must be nil (a private array is allocated, exactly New's behaviour) or
// hold BackingLines(cfg) frames. The window is cleared on adoption — every
// frame empty, recency reset — so reusing a window still dirty from a
// retired simulation is indistinguishable from a fresh allocation.
func NewWindowed(cfg Config, backing Backing) (*Cache, error) {
	g, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	if backing == nil {
		backing = make(Backing, g.lines)
	} else if uint64(len(backing)) != g.lines {
		return nil, fmt.Errorf("cache %s: backing window holds %d frames, geometry needs %d",
			cfg.Name, len(backing), g.lines)
	} else {
		clear(backing)
	}
	return &Cache{
		cfg:      cfg,
		sets:     backing,
		numSets:  g.numSets,
		setMask:  g.numSets - 1,
		setBits:  uint(bitsFor(g.numSets)),
		ways:     uint64(cfg.Ways),
		lineBits: g.lineBits,
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
func (c *Cache) Lines() uint64 { return uint64(len(c.sets)) }

// SetIndex returns the set index addr maps to (exported for the intra-bank
// wear-leveling extension, which remaps sets).
func (c *Cache) SetIndex(addr uint64) uint64 {
	return (addr >> c.lineBits) & c.setMask
}

// locate returns the first frame of addr's set and the tag a frame holding
// addr stores (line tag plus one; see way).
func (c *Cache) locate(addr uint64) (setBase uint64, tag uint32) {
	lineAddr := addr >> c.lineBits
	lineTag := lineAddr >> c.setBits
	c.sanCheckTag(addr, lineTag)
	return (lineAddr & c.setMask) * c.ways, uint32(lineTag) + 1
}

func bitsFor(n uint64) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// stamp advances the LRU clock and returns the new stamp. When the clock
// sits at clockMax it renormalises first, once per ~10^9 touches.
//
//lint:hotpath
func (c *Cache) stamp() uint32 {
	if c.tick == clockMax {
		c.renormalise()
	}
	c.tick++
	return c.tick
}

// renormalise rewrites every valid frame's LRU stamp to its rank within its
// set (1 for the least recent of k valid ways, k for the most recent) and
// sets the clock to the largest rank. This is exact: FillFrame only ever
// compares stamps of ways in one set, ranks keep each set's order, and
// every later stamp exceeds every rank.
func (c *Cache) renormalise() {
	ranks := make([]uint32, c.ways)
	var top uint32
	for base := uint64(0); base < uint64(len(c.sets)); base += c.ways {
		set := c.sets[base : base+c.ways]
		for i := range set {
			ranks[i] = 0
			if !set[i].valid() {
				continue
			}
			for j := range set {
				if set[j].valid() && set[j].lru() <= set[i].lru() {
					ranks[i]++
				}
			}
			top = max(top, ranks[i])
		}
		for i := range set {
			if set[i].valid() {
				set[i].meta = ranks[i]<<lruShift | set[i].meta&wayDirty
			}
		}
	}
	c.tick = top
}

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
	setBase, tag := c.locate(addr)
	c.sanCheckTouch(setBase)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			meta := c.stamp()<<lruShift | ways[i].meta&wayDirty
			if write {
				meta |= wayDirty
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			ways[i].meta = meta
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

// Peek reports whether addr is present without touching recency or stats.
func (c *Cache) Peek(addr uint64) bool {
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			return true
		}
	}
	return false
}

// PeekDirty reports (present, dirty) without touching recency or stats.
func (c *Cache) PeekDirty(addr uint64) (present, dirty bool) {
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			return true, ways[i].dirty()
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
// line was installed into, for per-frame ReRAM wear accounting.
//
//lint:hotpath
func (c *Cache) FillFrame(addr uint64, dirty bool) (Victim, uint64) {
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	victimIdx := 0
	for i := range ways {
		if !ways[i].valid() {
			victimIdx = i
			goto install
		}
		// Stamps are unique within a set, so comparing whole meta words
		// orders the ways by stamp whatever their dirty bits.
		if ways[i].meta < ways[victimIdx].meta {
			victimIdx = i
		}
	}
install:
	v := Victim{}
	if old := ways[victimIdx]; old.valid() {
		v.Valid = true
		v.Dirty = old.dirty()
		// The victim shares the incoming line's set, so its set index is the
		// shift/mask form rather than setBase/ways (ways need not be pow2).
		v.Addr = c.reconstruct(c.SetIndex(addr), uint64(old.tag-1))
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvicts++
		}
	}
	meta := c.stamp() << lruShift
	if dirty {
		meta |= wayDirty
	}
	ways[victimIdx] = way{tag: tag, meta: meta}
	c.stats.Fills++
	c.sanCheckFill(setBase, v.Valid)
	return v, setBase + uint64(victimIdx)
}

// Invalidate removes addr if present and reports (present, wasDirty). Used
// for coherence back-invalidations and inclusive-eviction shootdowns.
//
//lint:hotpath
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	setBase, tag := c.locate(addr)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			d := ways[i].dirty()
			ways[i] = way{}
			c.stats.Invalidates++
			c.sanCheckInvalidate(setBase, true)
			return true, d
		}
	}
	c.sanCheckInvalidate(setBase, false)
	return false, false
}

// CleanLine clears the dirty bit of addr if present (after a write-back has
// been propagated downstream).
//
//lint:hotpath
func (c *Cache) CleanLine(addr uint64) {
	setBase, tag := c.locate(addr)
	c.sanCheckTouch(setBase)
	ways := c.sets[setBase : setBase+c.ways]
	for i := range ways {
		if ways[i].tag == tag {
			ways[i].meta &^= wayDirty
			return
		}
	}
}

// reconstruct rebuilds a line's byte address from its set and line tag.
func (c *Cache) reconstruct(set, lineTag uint64) uint64 {
	return (lineTag<<c.setBits | set) << c.lineBits
}

// Occupancy returns the number of valid lines (test/diagnostic helper).
func (c *Cache) Occupancy() uint64 {
	var n uint64
	for i := range c.sets {
		if c.sets[i].valid() {
			n++
		}
	}
	return n
}
