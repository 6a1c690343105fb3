package experiments

import (
	"strings"
	"testing"
)

// tinyParams keeps experiment tests fast; shapes and plumbing are what is
// under test here, not statistical quality.
func tinyParams() Params {
	return Params{
		InstrPerCore: 2500,
		Warmup:       600,
		CharInstr:    8000,
		CharWarmup:   2000,
		Seed:         1,
	}
}

func TestParamsFromEnv(t *testing.T) {
	t.Setenv("RENUCA_INSTR", "1234")
	t.Setenv("RENUCA_WARMUP", "99")
	t.Setenv("RENUCA_CHAR_INSTR", "777")
	t.Setenv("RENUCA_CHAR_WARMUP", "55")
	t.Setenv("RENUCA_SEED", "9")
	t.Setenv("RENUCA_WORKERS", "6")
	t.Setenv("RENUCA_ROB", "168")
	t.Setenv("RENUCA_INTRABANK_WL", "true")
	p, err := ParamsFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if p.InstrPerCore != 1234 || p.Warmup != 99 || p.CharInstr != 777 || p.CharWarmup != 55 || p.Seed != 9 {
		t.Errorf("env not applied: %+v", p)
	}
	if p.ROBEntries != 168 || !p.IntraBankWL {
		t.Errorf("hardware env not applied: %+v", p)
	}
	if p.Workers != 6 {
		t.Errorf("RENUCA_WORKERS not applied: %d", p.Workers)
	}
	if got := NewRunner(p).Workers(); got != 6 {
		t.Errorf("runner pool size %d, want 6", got)
	}

	// Malformed values and the removed bank-timing knobs are errors that
	// name the variable, never a silent fall back to the default.
	for _, c := range []struct{ name, value string }{
		{"RENUCA_INSTR", "garbage"},
		{"RENUCA_INSTR", "0"},
		{"RENUCA_SEED", "-3"},
		{"RENUCA_ROB", "-1"},
		{"RENUCA_L2", "256k"},
		{"RENUCA_WRITE_LAT", "5000000000"},
		{"RENUCA_THRESHOLD", "NaN"},
		{"RENUCA_INTRABANK_WL", "yes"},
		{"RENUCA_WORKERS", "many"},
		{"RENUCA_WORKERS", "0"},
		{"RENUCA_WORKERS", "-2"},
		{"RENUCA_QUEUE", "1"},
		{"RENUCA_QUEUE", "0"},
		{"RENUCA_CWINDOW", "64"},
	} {
		t.Run(c.name+"="+c.value, func(t *testing.T) {
			t.Setenv(c.name, c.value)
			if _, err := ParamsFromEnv(); err == nil || !strings.Contains(err.Error(), c.name) {
				t.Errorf("got error %v, want one naming %s", err, c.name)
			}
		})
	}
}

func TestVariants(t *testing.T) {
	vs := Variants()
	if len(vs) != 4 {
		t.Fatalf("want 4 variants (Table III rows), got %d", len(vs))
	}
	if vs[0].Key != "actual" {
		t.Errorf("first variant %q, want actual", vs[0].Key)
	}
	if _, err := VariantByKey("l2-128"); err != nil {
		t.Error(err)
	}
	if _, err := VariantByKey("nope"); err == nil {
		t.Error("unknown variant must error")
	}
}

func TestRegistryCompleteness(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table/figure of the evaluation must be present.
	for _, want := range []string{
		"table2", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
		"fig11", "fig12", "table3", "fig13", "fig15", "fig17",
		"ablation", "rotation", "writelat", "energy",
	} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, err := ByID("fig3"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestTable2AndDerivedFigures(t *testing.T) {
	r := NewRunner(tinyParams())
	rows, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Fatalf("%d rows, want 22", len(rows))
	}
	// Memoisation: second call must return the identical slice.
	rows2, _ := r.Table2()
	if &rows[0] != &rows2[0] {
		t.Error("Table2 not memoised")
	}
	for _, row := range rows {
		if row.IPC <= 0 || row.IPC > 4 {
			t.Errorf("%s: IPC %v out of range", row.App, row.IPC)
		}
		if row.NonCriticalLoadPct < 0 || row.NonCriticalLoadPct > 100 {
			t.Errorf("%s: non-critical %v%%", row.App, row.NonCriticalLoadPct)
		}
	}
	for _, render := range []string{RenderTable2(rows), RenderFigure2(rows), RenderFigure5(rows)} {
		if !strings.Contains(render, "mcf") {
			t.Error("render output missing applications")
		}
	}
}

func TestLifetimeSuiteAndRenders(t *testing.T) {
	r := NewRunner(tinyParams())
	var logs int
	r.Log = func(string, ...any) { logs++ }
	v, _ := VariantByKey("actual")
	lr, err := r.Lifetime(v)
	if err != nil {
		t.Fatal(err)
	}
	if logs == 0 {
		t.Error("progress log never called")
	}
	if len(lr.Policies) != 5 || len(lr.Workloads) != 10 {
		t.Fatalf("shape: %d policies, %d workloads", len(lr.Policies), len(lr.Workloads))
	}
	for _, p := range lr.Policies {
		if len(lr.PerBankHMean[p]) != 16 {
			t.Errorf("%s: %d banks", p, len(lr.PerBankHMean[p]))
		}
		if lr.RawMin[p] <= 0 {
			t.Errorf("%s: raw min %v", p, lr.RawMin[p])
		}
		if len(lr.ImprovementVsSNUCA[p]) != 10 {
			t.Errorf("%s: %d improvements", p, len(lr.ImprovementVsSNUCA[p]))
		}
	}
	// S-NUCA improvement over itself is identically zero.
	for _, v := range lr.ImprovementVsSNUCA["S-NUCA"] {
		if v != 0 {
			t.Errorf("S-NUCA self-improvement %v", v)
		}
	}
	// Memoisation: a second Lifetime call must run no new simulations and
	// hold exactly one suite set.
	before := r.Sims()
	if _, err := r.Lifetime(v); err != nil {
		t.Fatal(err)
	}
	if got := r.Sims(); got != before {
		t.Errorf("memoised Lifetime ran %d extra sims", got-before)
	}
	if got := r.suiteFlight.Len(); got != 1 {
		t.Errorf("suite cache has %d entries, want 1", got)
	}

	pb := lr.RenderPerBank("Figure 3", []string{"S-NUCA", "R-NUCA", "Private", "Naive"})
	if !strings.Contains(pb, "CB-15") || !strings.Contains(pb, "S-NUCA") {
		t.Error("per-bank render incomplete")
	}
	f4 := lr.RenderFigure4([]string{"Naive", "S-NUCA", "Re-NUCA", "R-NUCA", "Private"})
	if !strings.Contains(f4, "Re-NUCA") {
		t.Error("figure 4 render incomplete")
	}
	impr := lr.RenderIPCImprovements("Figure 11")
	if !strings.Contains(impr, "WL10") || !strings.Contains(impr, "Avg") {
		t.Error("improvement render incomplete")
	}
}

func TestPaperTable3Reference(t *testing.T) {
	if got := PaperTable3("actual", "Naive"); got != 4.95 {
		t.Errorf("paper Naive actual = %v, want 4.95", got)
	}
	if got := PaperTable3("l3-1m", "Re-NUCA"); got != 1.67 {
		t.Errorf("paper Re-NUCA l3-1m = %v, want 1.67", got)
	}
}

func TestThresholdSweepShape(t *testing.T) {
	r := NewRunner(tinyParams())
	pts, err := r.ThresholdSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(SweepApps)*len(SweepThresholds) {
		t.Fatalf("%d points, want %d", len(pts), len(SweepApps)*len(SweepThresholds))
	}
	for _, p := range pts {
		if p.AccuracyPct < 0 || p.AccuracyPct > 100 ||
			p.NonCriticalBlocksPct < 0 || p.NonCriticalBlocksPct > 100 ||
			p.WritesNonCriticalPct < 0 || p.WritesNonCriticalPct > 100 {
			t.Errorf("out-of-range point %+v", p)
		}
	}
	// Monotonicity: non-critical share cannot shrink as the threshold
	// rises (a stricter criticality bar flags fewer lines critical).
	for _, app := range SweepApps {
		var prev float64 = -1
		for _, th := range SweepThresholds {
			for _, p := range pts {
				if p.App == app && p.ThresholdPct == th {
					if p.NonCriticalBlocksPct < prev-1e-9 {
						t.Errorf("%s: non-critical blocks shrank from %v to %v at x=%v",
							app, prev, p.NonCriticalBlocksPct, th)
					}
					prev = p.NonCriticalBlocksPct
				}
			}
		}
	}
	for _, render := range []string{RenderFigure7(pts), RenderFigure8(pts), RenderFigure9(pts)} {
		if !strings.Contains(render, "Avg") {
			t.Error("sweep render missing average row")
		}
	}
	// Memoised.
	pts2, _ := r.ThresholdSweep()
	if &pts[0] != &pts2[0] {
		t.Error("sweep not memoised")
	}
}

func TestAblation(t *testing.T) {
	r := NewRunner(tinyParams())
	pts, err := r.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d ablation points", len(pts))
	}
	for _, p := range pts {
		if p.MeanIPC <= 0 || p.MinLifetime <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	// Higher thresholds flag fewer fills critical.
	if pts[0].CriticalFillPct < pts[len(pts)-1].CriticalFillPct {
		t.Errorf("critical fills should shrink with threshold: %v -> %v",
			pts[0].CriticalFillPct, pts[len(pts)-1].CriticalFillPct)
	}
	if !strings.Contains(RenderAblation(pts), "x[%]") {
		t.Error("ablation render incomplete")
	}
}

func TestEnergyStudy(t *testing.T) {
	r := NewRunner(tinyParams())
	pts, err := r.EnergyStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 { // 5 policies x 2 technologies
		t.Fatalf("%d energy points, want 10", len(pts))
	}
	for _, p := range pts {
		if p.Breakdown.Total() <= 0 {
			t.Errorf("%s/%s: non-positive total", p.Policy, p.Breakdown.Technology)
		}
	}
	// For every policy, the ReRAM LLC total must undercut the SRAM one.
	for i := 0; i+1 < len(pts); i += 2 {
		sr, rr := pts[i].Breakdown, pts[i+1].Breakdown
		if sr.Technology != "SRAM" || rr.Technology != "ReRAM" {
			t.Fatalf("unexpected ordering: %s then %s", sr.Technology, rr.Technology)
		}
		if rr.LLCDynamic+rr.LLCLeakage >= sr.LLCDynamic+sr.LLCLeakage {
			t.Errorf("%s: ReRAM LLC energy should undercut SRAM", pts[i].Policy)
		}
	}
	if !strings.Contains(RenderEnergyStudy(pts), "leak share") {
		t.Error("energy render incomplete")
	}
}

func TestWriteLatencyAblation(t *testing.T) {
	r := NewRunner(tinyParams())
	pts, err := r.WriteLatencyAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 { // 3 latencies x 2 policies
		t.Fatalf("%d points, want 6", len(pts))
	}
	for _, p := range pts {
		if p.MeanIPC <= 0 || p.MinLifetime <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	if !strings.Contains(RenderWriteLatencyAblation(pts), "write[cyc]") {
		t.Error("write-latency render incomplete")
	}
}

func TestRotationAblationShape(t *testing.T) {
	r := NewRunner(tinyParams())
	pts, err := r.RotationAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Rotation || !pts[1].Rotation {
		t.Fatalf("rotation points malformed: %+v", pts)
	}
	for _, p := range pts {
		if p.MinFirstFailure > p.MinCapacity+1e-9 {
			t.Errorf("first-failure %v cannot exceed capacity %v", p.MinFirstFailure, p.MinCapacity)
		}
	}
	if !strings.Contains(RenderRotationAblation(pts), "rotation") {
		t.Error("rotation render incomplete")
	}
}

// TestContentionAddsNoSimulations pins that the contention view reads the
// memoised suites: after Lifetime has run the "actual" suites, Contention
// on the same variant simulates nothing more.
func TestContentionAddsNoSimulations(t *testing.T) {
	r := NewRunner(tinyParams())
	actual := mustVariant("actual")
	if _, err := r.Lifetime(actual); err != nil {
		t.Fatal(err)
	}
	before := r.Sims()
	cr, err := r.Contention(actual)
	if err != nil {
		t.Fatal(err)
	}
	if after := r.Sims(); after != before {
		t.Errorf("Contention ran %d simulations after Lifetime, want 0", after-before)
	}
	if len(cr.Policies) != 5 || cr.Queue["S-NUCA"].ReadQueued == 0 {
		t.Errorf("contention view incomplete: %+v", cr)
	}
}

// TestAblationHonoursHardwareOverrides pins that the ablations build their
// Options through the Runner like the suites do: a Params hardware
// override (here a small ROB) must change an ablation's results.
func TestAblationHonoursHardwareOverrides(t *testing.T) {
	base, err := NewRunner(tinyParams()).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams()
	p.ROBEntries = 16
	small, err := NewRunner(p).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i].MeanIPC == small[i].MeanIPC {
			t.Errorf("x=%v%%: mean IPC %.4f with a 16-entry ROB, same as Table I's 128", base[i].ThresholdPct, base[i].MeanIPC)
		}
	}
}
