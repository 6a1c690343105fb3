package experiments

import "fmt"

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Runner) (string, error)
}

// All returns every experiment in paper order. Experiments sharing
// simulation suites reuse them through the Runner's memoisation, so running
// all of them costs four five-policy suites + the characterisation runs.
func All() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table II: application characterisation", Run: func(r *Runner) (string, error) {
			rows, err := r.Table2()
			if err != nil {
				return "", err
			}
			return RenderTable2(rows), nil
		}},
		{ID: "fig2", Title: "Figure 2: WPKI and MPKI per application", Run: func(r *Runner) (string, error) {
			rows, err := r.Table2()
			if err != nil {
				return "", err
			}
			return RenderFigure2(rows), nil
		}},
		{ID: "fig3", Title: "Figure 3: per-bank lifetime of the baseline schemes", Run: func(r *Runner) (string, error) {
			lr, err := r.Lifetime(mustVariant("actual"))
			if err != nil {
				return "", err
			}
			return lr.RenderPerBank("Figure 3", []string{"S-NUCA", "R-NUCA", "Private", "Naive"}), nil
		}},
		{ID: "fig4", Title: "Figure 4(b): performance vs lifetime trade-off", Run: func(r *Runner) (string, error) {
			lr, err := r.Lifetime(mustVariant("actual"))
			if err != nil {
				return "", err
			}
			return lr.RenderFigure4([]string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}), nil
		}},
		{ID: "fig5", Title: "Figure 5: non-critical loads", Run: func(r *Runner) (string, error) {
			rows, err := r.Table2()
			if err != nil {
				return "", err
			}
			return RenderFigure5(rows), nil
		}},
		{ID: "fig7", Title: "Figure 7: criticality prediction accuracy", Run: func(r *Runner) (string, error) {
			pts, err := r.ThresholdSweep()
			if err != nil {
				return "", err
			}
			return RenderFigure7(pts), nil
		}},
		{ID: "fig8", Title: "Figure 8: non-critical cache blocks", Run: func(r *Runner) (string, error) {
			pts, err := r.ThresholdSweep()
			if err != nil {
				return "", err
			}
			return RenderFigure8(pts), nil
		}},
		{ID: "fig9", Title: "Figure 9: writes to non-critical blocks", Run: func(r *Runner) (string, error) {
			pts, err := r.ThresholdSweep()
			if err != nil {
				return "", err
			}
			return RenderFigure9(pts), nil
		}},
		{ID: "fig11", Title: "Figure 11: IPC improvements over S-NUCA", Run: func(r *Runner) (string, error) {
			lr, err := r.Lifetime(mustVariant("actual"))
			if err != nil {
				return "", err
			}
			return lr.RenderIPCImprovements("Figure 11"), nil
		}},
		{ID: "fig12", Title: "Figure 12: Re-NUCA wearout", Run: func(r *Runner) (string, error) {
			lr, err := r.Lifetime(mustVariant("actual"))
			if err != nil {
				return "", err
			}
			return lr.RenderPerBank("Figure 12", []string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}), nil
		}},
		{ID: "table3", Title: "Table III: raw minimum lifetimes", Run: func(r *Runner) (string, error) {
			t3, err := r.Table3()
			if err != nil {
				return "", err
			}
			return t3.Render(), nil
		}},
		{ID: "fig13", Title: "Figures 13+14: L2=128KB sensitivity", Run: func(r *Runner) (string, error) {
			lr, err := r.Lifetime(mustVariant("l2-128"))
			if err != nil {
				return "", err
			}
			return lr.RenderPerBank("Figure 13", []string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}) +
				"\n" + lr.RenderIPCImprovements("Figure 14"), nil
		}},
		{ID: "fig15", Title: "Figures 15+16: L3=1MB sensitivity", Run: func(r *Runner) (string, error) {
			lr, err := r.Lifetime(mustVariant("l3-1m"))
			if err != nil {
				return "", err
			}
			return lr.RenderPerBank("Figure 15", []string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}) +
				"\n" + lr.RenderIPCImprovements("Figure 16"), nil
		}},
		{ID: "fig17", Title: "Figures 17+18: ROB=168 sensitivity", Run: func(r *Runner) (string, error) {
			lr, err := r.Lifetime(mustVariant("rob-168"))
			if err != nil {
				return "", err
			}
			return lr.RenderPerBank("Figure 17", []string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"}) +
				"\n" + lr.RenderIPCImprovements("Figure 18"), nil
		}},
		{ID: "ablation", Title: "Ablation: Re-NUCA criticality threshold", Run: func(r *Runner) (string, error) {
			pts, err := r.Ablation()
			if err != nil {
				return "", err
			}
			return RenderAblation(pts), nil
		}},
		{ID: "rotation", Title: "Ablation: intra-bank wear-leveling extension", Run: func(r *Runner) (string, error) {
			pts, err := r.RotationAblation()
			if err != nil {
				return "", err
			}
			return RenderRotationAblation(pts), nil
		}},
		{ID: "writelat", Title: "Ablation: ReRAM write-latency asymmetry", Run: func(r *Runner) (string, error) {
			pts, err := r.WriteLatencyAblation()
			if err != nil {
				return "", err
			}
			return RenderWriteLatencyAblation(pts), nil
		}},
		{ID: "energy", Title: "Energy study: SRAM vs ReRAM LLC", Run: func(r *Runner) (string, error) {
			pts, err := r.EnergyStudy()
			if err != nil {
				return "", err
			}
			return RenderEnergyStudy(pts), nil
		}},
		{ID: "contention", Title: "Bank contention: charged waits and slipped requests per policy", Run: func(r *Runner) (string, error) {
			cr, err := r.Contention(mustVariant("actual"))
			if err != nil {
				return "", err
			}
			return cr.Render(), nil
		}},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

func mustVariant(key string) Variant {
	v, err := VariantByKey(key)
	if err != nil {
		panic(err)
	}
	return v
}
