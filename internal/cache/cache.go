// Package cache implements the set-associative, write-back, write-allocate
// cache used for every level of the simulated hierarchy (L1I, L1D, private
// L2, and each LLC bank). It is a functional model with LRU replacement and
// hit/miss/eviction accounting; timing is composed by the simulator on top.
package cache

import (
	"encoding/binary"
	"fmt"
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

// A line frame is split across two parallel arrays, 5 bytes in all, and
// zero means empty in both, so a freshly allocated (or cleared) frame array
// is an empty cache:
//   - tags[i] stores the line tag plus one, and 0 marks an empty frame. The
//     bias costs one value, so a tag may be at most MaxTagBits wide
//     (CheckTagWidth validates a geometry against an address width);
//   - meta[i] holds dirty<<7 | rank, where rank is the frame's recency
//     order among its set's valid frames: 0 is the least recent, k-1 the
//     most recent of k. An empty frame carries meta 0.
const (
	metaDirty = 1 << 7
	rankMask  = metaDirty - 1

	// maxWays is the most ways the 7 rank bits of a frame's meta byte can
	// order.
	maxWays = rankMask + 1

	// lowBytes has the low bit of every byte set: multiplying a byte by it
	// repeats the byte in all eight lanes of a word.
	lowBytes = 0x0101010101010101

	// MaxTagBits is the widest line tag a frame can store: tag+1 must fit
	// the 32-bit tag field.
	MaxTagBits = 31
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
	tags     []uint32 // flattened [numSets][ways]: line tag+1, 0 = empty
	meta     []uint8  // parallel to tags: dirty<<7 | recency rank
	numSets  uint64
	setMask  uint64
	setBits  uint   // log2(numSets), precomputed off the probe path
	ways     uint64 // uint64(cfg.Ways), hoisted off the probe path
	lineBits uint
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

// New builds a cache from cfg. It returns an error when the geometry does
// not divide evenly or set/line counts are not powers of two.
func New(cfg Config) (*Cache, error) {
	g, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint32, g.lines),
		meta:     make([]uint8, g.lines),
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
func (c *Cache) Lines() uint64 { return uint64(len(c.tags)) }

// SetIndex returns the set index addr maps to (exported for the intra-bank
// wear-leveling extension, which remaps sets).
func (c *Cache) SetIndex(addr uint64) uint64 {
	return (addr >> c.lineBits) & c.setMask
}

// locate returns the first frame of addr's set and the tag a frame holding
// addr stores (line tag plus one; see tags).
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
	end := setBase + c.ways
	tags, meta := c.tags[setBase:end], c.meta[setBase:end]
	meta = meta[:len(tags)]
	for i, t := range tags {
		// Reading the meta byte ahead of the compare lets its load overlap
		// the tag load, instead of waiting for the hit to be resolved.
		m := meta[i]
		if t == tag {
			r := m & rankMask
			if r < uint8(len(meta)-1) { // else already the most recent
				r += demoteAbove(meta, r)
			}
			m = m&metaDirty | r
			if write {
				m |= metaDirty
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			meta[i] = m
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
// carry rank 0 and never move.
//
//lint:hotpath
func demoteAbove(meta []uint8, r uint8) (moved uint8) {
	bias := uint64(rankMask-r) * lowBytes
	j := 0
	for ; j+8 <= len(meta); j += 8 {
		w, n := demoteLanes(binary.LittleEndian.Uint64(meta[j:]), bias)
		binary.LittleEndian.PutUint64(meta[j:], w)
		moved += n
	}
	if j+4 <= len(meta) {
		w, n := demoteLanes(uint64(binary.LittleEndian.Uint32(meta[j:])), bias)
		binary.LittleEndian.PutUint32(meta[j:], uint32(w))
		moved += n
		j += 4
	}
	for ; j < len(meta); j++ {
		w, n := demoteLanes(uint64(meta[j]), bias)
		meta[j] = uint8(w)
		moved += n
	}
	return moved
}

// demoteLanes is demoteAbove on up to eight meta bytes packed in w, with
// bias holding 127-r in every byte. Adding 127-r to a byte's rank carries
// into the byte's top bit exactly when the rank exceeds r, and no sum (at
// most 127+127) carries out of its byte; unused high bytes are zero and
// never carry. Each marked byte then loses one, which a rank above 0 takes
// without a borrow. It returns the new word and the number of marked bytes.
func demoteLanes(w, bias uint64) (uint64, uint8) {
	ones := ((w & (rankMask * lowBytes)) + bias) & (metaDirty * lowBytes) >> 7
	return w - ones, uint8(ones * lowBytes >> 56) // byte sum: at most 8
}

// Peek reports whether addr is present without touching recency or stats.
func (c *Cache) Peek(addr uint64) bool {
	present, _ := c.PeekDirty(addr)
	return present
}

// PeekDirty reports (present, dirty) without touching recency or stats.
func (c *Cache) PeekDirty(addr uint64) (present, dirty bool) {
	setBase, tag := c.locate(addr)
	end := setBase + c.ways
	tags, meta := c.tags[setBase:end], c.meta[setBase:end]
	for i, t := range tags {
		if t == tag {
			return true, meta[i]&metaDirty != 0
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
	setBase, tag := c.locate(addr)
	end := setBase + c.ways
	tags, meta := c.tags[setBase:end], c.meta[setBase:end]
	way := -1
	for i, t := range tags {
		if t == 0 {
			way = i
			break
		}
	}
	v := Victim{}
	var rank uint8
	if way >= 0 {
		// The line joins the set's k valid lines at rank k.
		for _, t := range tags {
			if t != 0 {
				rank++
			}
		}
	} else {
		// Full set: evict rank 0. Every other line moves down one rank; the
		// victim's byte wraps, harmlessly, since its frame is overwritten
		// below.
		var victim uint8
		for i, m := range meta {
			if m&rankMask == 0 {
				way, victim = i, m
			}
			meta[i] = m - 1
		}
		v.Valid = true
		v.Dirty = victim&metaDirty != 0
		// The victim shares the incoming line's set, so its set index is the
		// shift/mask form rather than setBase/ways (ways need not be pow2).
		v.Addr = c.reconstruct(c.SetIndex(addr), uint64(tags[way]-1))
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvicts++
		}
		rank = uint8(len(meta) - 1)
	}
	m := rank
	if dirty {
		m |= metaDirty
	}
	tags[way], meta[way] = tag, m
	c.stats.Fills++
	c.sanCheckFill(setBase, v.Valid)
	return v, setBase + uint64(way)
}

// Invalidate removes addr if present and reports (present, wasDirty). Used
// for coherence back-invalidations and inclusive-eviction shootdowns.
//
//lint:hotpath
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	setBase, tag := c.locate(addr)
	end := setBase + c.ways
	tags, meta := c.tags[setBase:end], c.meta[setBase:end]
	for i, t := range tags {
		if t == tag {
			m := meta[i]
			tags[i], meta[i] = 0, 0
			demoteAbove(meta, m&rankMask)
			c.stats.Invalidates++
			c.sanCheckInvalidate(setBase, true)
			return true, m&metaDirty != 0
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
	end := setBase + c.ways
	tags, meta := c.tags[setBase:end], c.meta[setBase:end]
	for i, t := range tags {
		if t == tag {
			meta[i] &^= metaDirty
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
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
