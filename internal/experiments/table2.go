package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Table2Row is one application's single-core characterisation, measured and
// paper-reference. NonCriticalLoadPct additionally carries Figure 5's
// metric (the percentage of loads that never stall the ROB head), which the
// paper derives from the same single-application runs.
type Table2Row struct {
	App                string
	Class              string
	WPKI               float64
	MPKI               float64
	HitRate            float64
	IPC                float64
	Paper              trace.PaperStats
	NonCriticalLoadPct float64
	PredAccuracyPct    float64
}

// Table2 characterises all 22 applications on the single-core configuration
// (one 2MB L3 bank, 256KB L2), reproducing Table II / Figure 2 / Figure 5.
// The applications characterise in parallel on the Runner's pool — each on
// its own single-core System — with rows collected in AppNames order.
func (r *Runner) Table2() ([]Table2Row, error) {
	return memo(&r.table2, func() ([]Table2Row, error) {
		names := trace.AppNames()
		rows := make([]Table2Row, len(names))
		r.logf("char", "characterising %d applications (%d instr)", len(names), r.p.CharInstr)
		err := r.pool.Map(len(names), func(i int) error {
			name := names[i]
			prof, err := trace.ProfileFor(name)
			if err != nil {
				return err
			}
			cfg := sim.CharacterisationConfig()
			cfg.Seed = r.p.Seed
			s, err := sim.New(cfg, []trace.Profile{prof})
			if err != nil {
				return err
			}
			res, err := s.RunMeasured(r.p.CharWarmup, r.p.CharInstr)
			if err != nil {
				return fmt.Errorf("characterising %s: %w", name, err)
			}
			ctr := s.Counters(0)
			hit := 0.0
			if acc := ctr.LLCHits + ctr.LLCMisses; acc > 0 {
				hit = float64(ctr.LLCHits) / float64(acc)
			}
			rows[i] = Table2Row{
				App:                name,
				Class:              prof.Intensity().String(),
				WPKI:               res.WPKI[0],
				MPKI:               res.MPKI[0],
				HitRate:            hit,
				IPC:                res.IPC[0],
				Paper:              prof.Paper,
				NonCriticalLoadPct: 100 * res.NonCriticalLoadFrac[0],
				PredAccuracyPct:    100 * res.PredictorAccuracy[0],
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.sims += uint64(len(rows))
		return rows, nil
	})
}

// RenderTable2 prints the measured-vs-paper characterisation table.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: application characterisation (single core, 256KB L2, 2MB L3)\n")
	fmt.Fprintf(&b, "%-12s %-6s | %7s %7s | %7s %7s | %5s %5s | %5s %5s\n",
		"app", "class", "WPKI", "paper", "MPKI", "paper", "hit", "paper", "IPC", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-6s | %7.2f %7.2f | %7.2f %7.2f | %5.2f %5.2f | %5.2f %5.2f\n",
			r.App, r.Class, r.WPKI, r.Paper.WPKI, r.MPKI, r.Paper.MPKI,
			r.HitRate, r.Paper.HitRate, r.IPC, r.Paper.IPC)
	}
	return b.String()
}

// RenderFigure2 prints the WPKI+MPKI series of Figure 2 (descending order,
// as plotted in the paper).
func RenderFigure2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: WPKI and MPKI per application (stacked, descending)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %10s %12s\n", "app", "WPKI", "MPKI", "WPKI+MPKI", "paper W+M")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.2f %8.2f %10.2f %12.2f\n",
			r.App, r.WPKI, r.MPKI, r.WPKI+r.MPKI, r.Paper.WPKI+r.Paper.MPKI)
	}
	return b.String()
}

// RenderFigure5 prints the percentage of non-critical loads per application
// (loads that never stall the ROB head). The paper reports >80% on average.
func RenderFigure5(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: loads that do not stall the ROB head [%%]\n")
	fmt.Fprintf(&b, "%-12s %16s\n", "app", "non-critical[%]")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %16.1f\n", r.App, r.NonCriticalLoadPct)
		sum += r.NonCriticalLoadPct
	}
	fmt.Fprintf(&b, "%-12s %16.1f   (paper: >80%% on average)\n", "Average", sum/float64(len(rows)))
	return b.String()
}
