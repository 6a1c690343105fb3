package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// SweepApps are the eight applications of Figures 7, 8 and 9.
var SweepApps = []string{"mcf", "GemsFDTD", "lbm", "milc", "astar", "bwaves", "bzip2", "leslie3d"}

// SweepThresholds are the criticality thresholds x% of Figures 7, 8 and 9.
var SweepThresholds = []float64{3, 5, 10, 20, 25, 33, 50, 75, 100}

// ThresholdPoint is one (application, threshold) measurement.
type ThresholdPoint struct {
	App          string
	ThresholdPct float64
	// AccuracyPct is the criticality predictor's accuracy in the paper's
	// sense: the fraction of actually-critical loads (those that block the
	// ROB head) the predictor flagged critical at issue. A 100% threshold
	// flags almost nothing, so this collapses as x grows — the paper
	// reports 83% at x=3% falling to 14.5% at x=100% (Figure 7).
	AccuracyPct float64
	// NonCriticalBlocksPct is the share of LLC fills carrying a
	// non-critical verdict (Figure 8: cache blocks that can be spread out).
	NonCriticalBlocksPct float64
	// WritesNonCriticalPct is the share of LLC writes (fills + write-backs)
	// landing on non-critical lines (Figure 9).
	WritesNonCriticalPct float64
}

// ThresholdSweep runs the single-core characterisation for every
// (application, threshold) pair of Figures 7, 8 and 9. All 72 pairs are
// independent simulations, so they fan out on the Runner's pool; each pair
// lands at its (app, threshold) position in the result slice. Every
// threshold of one application shares the same seed — and therefore the
// same instruction stream — so the per-app series vary only in the
// predictor's threshold, exactly as in the serial harness.
func (r *Runner) ThresholdSweep() ([]ThresholdPoint, error) {
	return memo(&r.sweep, func() ([]ThresholdPoint, error) {
		n := len(SweepApps) * len(SweepThresholds)
		out := make([]ThresholdPoint, n)
		r.logf("sweep", "threshold sweep: %d apps x %d thresholds (%d instr)", len(SweepApps), len(SweepThresholds), r.p.CharInstr)
		err := r.pool.Map(n, func(i int) error {
			app := SweepApps[i/len(SweepThresholds)]
			th := SweepThresholds[i%len(SweepThresholds)]
			prof, err := trace.ProfileFor(app)
			if err != nil {
				return err
			}
			cfg := sim.CharacterisationConfig()
			cfg.Seed = r.p.Seed
			cfg.CPT.ThresholdPct = th
			s, err := sim.New(cfg, []trace.Profile{prof})
			if err != nil {
				return err
			}
			if _, err := s.RunMeasured(r.p.CharWarmup, r.p.CharInstr); err != nil {
				return fmt.Errorf("sweep %s@%v%%: %w", app, th, err)
			}
			ps := s.Core(0).Predictor().Stats()
			recall := 0.0
			if n := ps.TruePositive + ps.FalseNegative; n > 0 {
				recall = 100 * float64(ps.TruePositive) / float64(n)
			}
			llc := s.LLC().Stats()
			nonCritBlocks := 0.0
			if llc.Fills > 0 {
				nonCritBlocks = 100 * float64(llc.NonCriticalFills) / float64(llc.Fills)
			}
			nonCritWrites := 0.0
			if w := llc.WritesCritical + llc.WritesNonCritical; w > 0 {
				nonCritWrites = 100 * float64(llc.WritesNonCritical) / float64(w)
			}
			out[i] = ThresholdPoint{
				App:                  app,
				ThresholdPct:         th,
				AccuracyPct:          recall,
				NonCriticalBlocksPct: nonCritBlocks,
				WritesNonCriticalPct: nonCritWrites,
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.sims += uint64(n)
		return out, nil
	})
}

// renderSweep prints one metric of the sweep as an apps-x-thresholds grid.
func renderSweep(points []ThresholdPoint, title string, metric func(ThresholdPoint) float64, note string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s", "app")
	for _, th := range SweepThresholds {
		fmt.Fprintf(&b, " %6.0f%%", th)
	}
	fmt.Fprintln(&b)
	sums := make([]float64, len(SweepThresholds))
	for _, app := range SweepApps {
		fmt.Fprintf(&b, "%-10s", app)
		for i, th := range SweepThresholds {
			for _, p := range points {
				if p.App == app && p.ThresholdPct == th {
					v := metric(p)
					sums[i] += v
					fmt.Fprintf(&b, " %7.1f", v)
				}
			}
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s", "Avg")
	for i := range SweepThresholds {
		fmt.Fprintf(&b, " %7.1f", sums[i]/float64(len(SweepApps)))
	}
	fmt.Fprintln(&b)
	if note != "" {
		fmt.Fprintln(&b, note)
	}
	return b.String()
}

// RenderFigure7 prints criticality prediction accuracy per threshold.
func RenderFigure7(points []ThresholdPoint) string {
	return renderSweep(points, "Figure 7: criticality prediction accuracy [%]",
		func(p ThresholdPoint) float64 { return p.AccuracyPct },
		"(paper: ~83% average at x=3%, dropping to 14.5% at x=100%)")
}

// RenderFigure8 prints the percentage of non-critical cache blocks.
func RenderFigure8(points []ThresholdPoint) string {
	return renderSweep(points, "Figure 8: non-critical cache blocks fetched from memory [%]",
		func(p ThresholdPoint) float64 { return p.NonCriticalBlocksPct },
		"(paper: ~50.3% of blocks are non-critical at x=3%)")
}

// RenderFigure9 prints the percentage of LLC writes to non-critical blocks.
func RenderFigure9(points []ThresholdPoint) string {
	return renderSweep(points, "Figure 9: LLC writes to non-critical cache blocks [%]",
		func(p ThresholdPoint) float64 { return p.WritesNonCriticalPct },
		"(paper: ~50% of writes go to non-critical blocks at x=3%)")
}
