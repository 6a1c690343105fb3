// Package predictor implements the paper's load-criticality predictor
// (Section IV-B): a PC-indexed Criticality Predictor Table (CPT) adapted
// from the Commit Block Predictor of Ghose et al. Each entry tracks, for one
// load PC, how many dynamic loads it issued (numLoadsCount) and how many of
// them blocked the head of the ROB (robBlockCount). A load is predicted
// critical when robBlockCount >= x% of numLoadsCount, where x is the
// criticality threshold (the paper settles on 3%). Unlike Ghose et al., no
// stall-duration state is kept: the predictor only emits one bit.
package predictor

import (
	"fmt"
	"math"
)

// Config parameterises the CPT.
type Config struct {
	// Entries is the number of direct-mapped, tagged table entries.
	Entries int
	// ThresholdPct is the criticality threshold x as a percentage in (0,100].
	ThresholdPct float64
}

// DefaultConfig uses a 4096-entry table (the paper leaves the capacity
// unstated; 4096 tagged entries comfortably hold the static load PCs of a
// SPEC-class loop nest) and a 10% criticality threshold. The paper picks
// x=3% as the knee of its accuracy/coverage curves (Figures 7-9); on this
// simulator's block-rate distribution the same knee sits at x=10% — our
// streaming PCs block ~5-10% of their executions instead of <3%, because
// the trace-driven core sustains less memory-level parallelism than gem5's
// full OoO model. The per-figure sweeps still cover 3%..100%.
func DefaultConfig() Config {
	return Config{Entries: 4096, ThresholdPct: 10}
}

// Stats accumulates prediction-quality counters. Outcomes are recorded at
// commit, when the ground truth (did this load block the ROB head?) is known.
type Stats struct {
	Predictions       uint64 // Predict calls
	PredictedCritical uint64
	Correct           uint64 // prediction matched outcome
	Incorrect         uint64
	TruePositive      uint64 // predicted critical, was critical
	TrueNegative      uint64
	FalsePositive     uint64
	FalseNegative     uint64
	Inserts           uint64
	Conflicts         uint64 // direct-mapped replacements of a live entry
}

// Accuracy returns the fraction of recorded outcomes the predictor got
// right, or 0 when nothing was recorded.
func (s Stats) Accuracy() float64 {
	n := s.Correct + s.Incorrect
	if n == 0 {
		return 0
	}
	return float64(s.Correct) / float64(n)
}

// entry is packed to 16 bytes: key holds the load PC plus one, so the zero
// value is an empty entry (generated PCs are word-aligned, so pc+1 never
// wraps), which makes the hot-path tag check a single compare, and both
// counters share one word — robBlock in the high half, numLoads in the low
// half. Each counter saturates at 2^32-1 instead of carrying into its
// neighbour; one PC would need four billion dynamic loads in a single run
// to get there, three orders of magnitude beyond the largest sweep.
type entry struct {
	key    uint64 // pc+1; 0 = empty
	counts uint64 // robBlock<<32 | numLoads
}

func (e entry) numLoads() uint64 { return e.counts & countMask }
func (e entry) robBlock() uint64 { return e.counts >> countShift }

const (
	countShift = 32
	countMask  = 1<<countShift - 1
)

// CPT is the Criticality Predictor Table. Each core owns one; it is not
// safe for concurrent use.
//
// The table is direct-mapped over Entries hash-scattered indices, but a
// core's loads come from at most a few hundred static PCs, so most indices
// are never used. Each index therefore holds a 4-byte position in a dense
// entry store that grows in first-use order; position 0 is a permanently
// empty entry that every unused index points at, so a probe of an unused
// index reads as a tag miss with no extra branch. An index keeps its
// position for life: a conflicting insert overwrites that entry in place,
// so the store never holds more than Entries+1 entries.
type CPT struct {
	cfg     Config
	mask    uint64
	index   []uint32 // table index -> position in entries; 0 = never used
	entries []entry  // entries[0] is the empty entry
	stats   Stats

	// intThresh holds ThresholdPct when it is exactly integral (every
	// configuration the sweeps use), selecting an all-integer Predict
	// compare; 0 keeps the float path for fractional thresholds.
	intThresh uint64
}

// New validates cfg and builds the table. Entries must be a power of two.
func New(cfg Config) (*CPT, error) {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		return nil, fmt.Errorf("predictor: entries %d must be a positive power of two", cfg.Entries)
	}
	if !(cfg.ThresholdPct > 0 && cfg.ThresholdPct <= 100) { // NaN fails both
		return nil, fmt.Errorf("predictor: threshold %v%% out of (0,100]", cfg.ThresholdPct)
	}
	c := &CPT{
		cfg:     cfg,
		mask:    uint64(cfg.Entries - 1),
		index:   make([]uint32, cfg.Entries),
		entries: make([]entry, 1, 1+min(cfg.Entries, initialEntries)),
	}
	if t := math.Trunc(cfg.ThresholdPct); t == cfg.ThresholdPct {
		c.intThresh = uint64(t)
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *CPT {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the construction parameters.
func (c *CPT) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *CPT) Stats() Stats { return c.stats }

// ResetStats zeroes the quality counters but keeps the learned table.
func (c *CPT) ResetStats() { c.stats = Stats{} }

// initialEntries is the entry store's starting capacity: enough for the
// static load PCs of any Table II app, so a run appends without growing.
const initialEntries = 128

// slot returns the table index pc maps to.
func (c *CPT) slot(pc uint64) uint64 {
	// Mix the PC so nearby instruction addresses spread across the table.
	h := pc * 0x9e3779b97f4a7c15
	return (h >> 16) & c.mask
}

// probe returns the entry at pc's table index: the empty entry when the
// index was never used.
func (c *CPT) probe(pc uint64) *entry {
	return &c.entries[c.index[c.slot(pc)]]
}

// Predict returns the criticality prediction for a load at pc (step 1 of
// Figure 6b) without touching the entry's counters. A table miss predicts
// non-critical: the paper's first-touch presumption prioritises lifetime
// over performance.
func (c *CPT) Predict(pc uint64) bool {
	return c.predict(c.probe(pc), pc)
}

// Issue is the issue-time probe of a load at pc: it returns Predict's
// prediction and then bumps numLoadsCount for an existing entry (steps 1
// of Figure 6b and 2 of Figure 6a), hashing into the table once for both.
// Issues from unknown PCs leave the table unchanged until commit.
//
//lint:hotpath
func (c *CPT) Issue(pc uint64) bool {
	e := c.probe(pc)
	critical := c.predict(e, pc)
	if e.key == pc+1 && e.counts&countMask != countMask {
		e.counts++
	}
	return critical
}

// predict is Predict on the entry pc indexes.
func (c *CPT) predict(e *entry, pc uint64) bool {
	c.stats.Predictions++
	if e.key != pc+1 || e.numLoads() == 0 {
		return false
	}
	// Integer form of robBlock/numLoads >= x%: with x integral and both
	// counters 32-bit, every product below is exact in uint64 and in
	// float64 alike, so the two compares agree bit-for-bit; the float
	// fallback remains the documented general case for fractional
	// thresholds.
	var critical bool
	if c.intThresh != 0 {
		critical = e.robBlock()*100 >= c.intThresh*e.numLoads()
	} else {
		critical = float64(e.robBlock())*100 >= c.cfg.ThresholdPct*float64(e.numLoads())
	}
	if critical {
		c.stats.PredictedCritical++
	}
	return critical
}

// OnROBBlock bumps robBlockCount when the load at pc blocks the ROB head
// (step 3 of Figure 6a).
//
//lint:hotpath
func (c *CPT) OnROBBlock(pc uint64) {
	e := c.probe(pc)
	if e.key == pc+1 && e.counts>>countShift != countMask {
		e.counts += 1 << countShift
	}
}

// OnLoadCommit finalises a load: unknown PCs are inserted with
// numLoadsCount=1 and robBlockCount set from whether this dynamic instance
// blocked the head (Section IV-B). predicted is the Predict result from
// issue time; blocked is the ground truth. Prediction quality is recorded
// here.
//
//lint:hotpath
func (c *CPT) OnLoadCommit(pc uint64, predicted, blocked bool) {
	if predicted == blocked {
		c.stats.Correct++
	} else {
		c.stats.Incorrect++
	}
	switch {
	case predicted && blocked:
		c.stats.TruePositive++
	case predicted && !blocked:
		c.stats.FalsePositive++
	case !predicted && blocked:
		c.stats.FalseNegative++
	default:
		c.stats.TrueNegative++
	}

	i := c.slot(pc)
	e := &c.entries[c.index[i]]
	if e.key == pc+1 {
		return
	}
	if e.key != 0 {
		c.stats.Conflicts++
	}
	c.stats.Inserts++
	var rb uint64
	if blocked {
		rb = 1
	}
	fresh := entry{key: pc + 1, counts: rb<<countShift | 1}
	if c.index[i] == 0 {
		c.index[i] = uint32(len(c.entries))
		//lint:allow allocfree bounded: one append per table index ever used, so at most Entries in a lifetime, and none while the PCs fit initialEntries
		c.entries = append(c.entries, fresh)
		return
	}
	*e = fresh
}

// Lookup exposes an entry's counters for tests and diagnostics.
func (c *CPT) Lookup(pc uint64) (numLoads, robBlock uint64, ok bool) {
	e := c.probe(pc)
	if e.key == pc+1 {
		return e.numLoads(), e.robBlock(), true
	}
	return 0, 0, false
}
