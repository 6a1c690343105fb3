// Package rram models the endurance of the ReRAM last-level cache. Every
// write into an LLC bank — a fill after a miss or an L2 dirty write-back —
// wears the physical frame (set, way) it lands in. Following the paper, a
// cell endures 1e11 writes (Section V-A); a bank's lifetime is the time
// until its capacity is worn away, extrapolated linearly from the write
// rate observed during simulation at the 2.4GHz core clock.
//
// Two lifetime views are provided:
//
//   - Capacity lifetime (the paper's "lifetime in years ... beyond which we
//     loose the whole cache capacity"): endurance divided by the mean
//     per-frame write rate of the bank.
//   - First-failure lifetime: endurance divided by the hottest frame's
//     write rate; this is the pessimistic bound the intra-bank
//     wear-leveling extension improves.
package rram

import "fmt"

// SecondsPerYear uses the Julian year.
const SecondsPerYear = 365.25 * 24 * 3600

// Config parameterises the wear model.
type Config struct {
	Banks         int
	FramesPerBank uint64
	// Endurance is the per-cell (per-frame) write budget; the paper uses 1e11.
	Endurance float64
	// ClockHz converts simulated cycles to seconds; Table I's cores run 2.4GHz.
	ClockHz float64
	// CapYears bounds reported lifetimes so banks that saw no writes in the
	// short measured window produce a finite, clearly-saturated number.
	CapYears float64
}

// DefaultConfig matches the paper: 16 banks x 2MB of 64B frames, 1e11
// endurance, 2.4GHz, lifetimes capped at 50 years.
func DefaultConfig() Config {
	return Config{
		Banks:         16,
		FramesPerBank: 2 << 20 / 64,
		Endurance:     1e11,
		ClockHz:       2.4e9,
		CapYears:      50,
	}
}

// Wear tracks per-frame write counts for every LLC bank.
//
// A frame's count is kept in two parts: the low 8 bits in frames, and the
// carries above them in high. The paper's measured windows charge a frame
// a few writes (at most 10 at 400K instructions per core), so high stays
// nil until some frame passes 255 writes, and then holds only the frames
// that have. The full count, high[i]<<8 | frames[i], is exact for
// any window length.
type Wear struct {
	cfg        Config
	frames     []uint8           // [bank*FramesPerBank+frame] -> writes mod 2^8
	high       map[uint64]uint64 // frame index -> writes>>8; nil until the first wrap
	bankWrites []uint64
	maxFrame   []uint64 // running per-bank hottest frame count
	san        sanState // wear-monotonicity shadow; zero-size without the simcheck tag
}

// validate checks cfg's wear-model parameters.
func validate(cfg Config) error {
	if cfg.Banks <= 0 || cfg.FramesPerBank == 0 {
		return fmt.Errorf("rram: banks %d / frames %d must be positive", cfg.Banks, cfg.FramesPerBank)
	}
	if cfg.Endurance <= 0 || cfg.ClockHz <= 0 || cfg.CapYears <= 0 {
		return fmt.Errorf("rram: endurance, clock and cap must be positive")
	}
	return nil
}

// New builds the wear tracker.
func New(cfg Config) (*Wear, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return &Wear{
		cfg:        cfg,
		frames:     make([]uint8, uint64(cfg.Banks)*cfg.FramesPerBank),
		bankWrites: make([]uint64, cfg.Banks),
		maxFrame:   make([]uint64, cfg.Banks),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Wear {
	w, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Config returns the construction parameters.
func (w *Wear) Config() Config { return w.cfg }

// RecordWrite charges one write to the given frame of the given bank.
//
//lint:hotpath
func (w *Wear) RecordWrite(bank int, frame uint64) {
	// Out-of-range bank/frame panics on the index, which is a simulator bug.
	i := uint64(bank)*w.cfg.FramesPerBank + frame
	w.frames[i]++
	w.bankWrites[bank]++
	n := uint64(w.frames[i])
	if n == 0 || w.high != nil {
		n = w.carry(i)
	}
	if n > w.maxFrame[bank] {
		w.maxFrame[bank] = n
	}
	w.sanCheckWrite(bank, frame)
}

// carry is RecordWrite's slow path, taken once the low word of frame i has
// wrapped or any frame holds a carry: it records a wrap that just happened
// and returns the frame's full count.
func (w *Wear) carry(i uint64) uint64 {
	if w.frames[i] == 0 {
		if w.high == nil {
			w.high = make(map[uint64]uint64)
		}
		w.high[i]++
	}
	return w.count(i)
}

// count returns the full write count of frame index i.
func (w *Wear) count(i uint64) uint64 {
	return w.high[i]<<8 | uint64(w.frames[i])
}

// Reset zeroes all wear state (warmup/measure boundary).
func (w *Wear) Reset() {
	clear(w.frames)
	w.high = nil
	clear(w.bankWrites)
	clear(w.maxFrame)
	w.sanReset()
}

// BankWrites returns the total writes charged to a bank.
func (w *Wear) BankWrites(bank int) uint64 { return w.bankWrites[bank] }

// TotalWrites returns writes summed over all banks.
func (w *Wear) TotalWrites() uint64 {
	var t uint64
	for _, n := range w.bankWrites {
		t += n
	}
	return t
}

// MaxFrameWrites returns the hottest frame count of a bank.
func (w *Wear) MaxFrameWrites(bank int) uint64 { return w.maxFrame[bank] }

// lifetimeYears converts a per-frame write count observed over elapsed
// cycles into years until the endurance budget is exhausted.
func (w *Wear) lifetimeYears(frameWrites float64, elapsedCycles uint64) float64 {
	if elapsedCycles == 0 {
		return w.cfg.CapYears
	}
	if frameWrites <= 0 {
		return w.cfg.CapYears
	}
	seconds := float64(elapsedCycles) / w.cfg.ClockHz
	ratePerSec := frameWrites / seconds
	years := w.cfg.Endurance / ratePerSec / SecondsPerYear
	if years > w.cfg.CapYears {
		return w.cfg.CapYears
	}
	return years
}

// CapacityLifetimeYears returns the bank's capacity lifetime: endurance over
// the mean per-frame write rate. This is the paper's reported metric.
func (w *Wear) CapacityLifetimeYears(bank int, elapsedCycles uint64) float64 {
	mean := float64(w.bankWrites[bank]) / float64(w.cfg.FramesPerBank)
	return w.lifetimeYears(mean, elapsedCycles)
}

// FirstFailureLifetimeYears returns the time until the bank's hottest frame
// dies.
func (w *Wear) FirstFailureLifetimeYears(bank int, elapsedCycles uint64) float64 {
	return w.lifetimeYears(float64(w.maxFrame[bank]), elapsedCycles)
}

// FirstFailureLifetimes returns the first-failure lifetime of every bank.
func (w *Wear) FirstFailureLifetimes(elapsedCycles uint64) []float64 {
	out := make([]float64, w.cfg.Banks)
	for b := range out {
		out[b] = w.FirstFailureLifetimeYears(b, elapsedCycles)
	}
	return out
}

// CapacityLifetimes returns the capacity lifetime of every bank.
func (w *Wear) CapacityLifetimes(elapsedCycles uint64) []float64 {
	out := make([]float64, w.cfg.Banks)
	for b := range out {
		out[b] = w.CapacityLifetimeYears(b, elapsedCycles)
	}
	return out
}

// WriteImbalance returns max(bankWrites)/mean(bankWrites), a dimensionless
// skew measure (1.0 = perfectly level). Returns 1 when no writes occurred.
func (w *Wear) WriteImbalance() float64 {
	var total, max uint64
	for _, n := range w.bankWrites {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(w.cfg.Banks)
	return float64(max) / mean
}
