//go:build simcheck

package rram

import "repro/internal/sancheck"

// sanState shadows the per-bank hottest-frame counter so monotonicity
// violations (wear can only grow between Resets) are caught even when a
// corrupted maxFrame still looks internally consistent.
type sanState struct {
	lastMax []uint64
}

// sanCheckWrite validates the wear bookkeeping after one recorded write:
// the frame's full count (carry and low word) must not have wrapped to
// zero, as a lost or overflowing carry would make it, the bank's
// hottest-frame counter dominates every individual frame just written,
// total bank writes dominate the hottest frame, wear is monotone between
// Resets, and the hottest frame stays within the configured cell
// endurance budget — past it the linear lifetime extrapolation (paper
// Section V-A) is meaningless.
func (w *Wear) sanCheckWrite(bank int, frame uint64) {
	if w.san.lastMax == nil {
		w.san.lastMax = make([]uint64, w.cfg.Banks) // first write, before steady state
	}
	n := w.count(uint64(bank)*w.cfg.FramesPerBank + frame)
	if n == 0 {
		sancheck.Failf("rram: bank %d frame %d write counter wrapped to zero", bank, frame)
	}
	if n > w.maxFrame[bank] {
		sancheck.Failf("rram: bank %d hottest-frame counter %d fell below frame %d's count %d",
			bank, w.maxFrame[bank], frame, n)
	}
	if w.maxFrame[bank] < w.san.lastMax[bank] {
		sancheck.Failf("rram: bank %d hottest-frame counter moved backwards %d -> %d (wear must be monotone between Resets)",
			bank, w.san.lastMax[bank], w.maxFrame[bank])
	}
	w.san.lastMax[bank] = w.maxFrame[bank]
	if w.maxFrame[bank] > w.bankWrites[bank] {
		sancheck.Failf("rram: bank %d hottest frame counts %d writes but the whole bank recorded only %d",
			bank, w.maxFrame[bank], w.bankWrites[bank])
	}
	if float64(w.maxFrame[bank]) > w.cfg.Endurance {
		sancheck.Failf("rram: bank %d frame wear %d exceeded the cell endurance budget %g",
			bank, w.maxFrame[bank], w.cfg.Endurance)
	}
}

// sanReset clears the monotonicity shadow alongside Wear.Reset.
func (w *Wear) sanReset() {
	if w.san.lastMax != nil {
		clear(w.san.lastMax)
	}
}
