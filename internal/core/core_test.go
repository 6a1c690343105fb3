package core

import (
	"strings"
	"testing"

	"repro/internal/pool"
	"repro/internal/workload"
)

func tinyOptions(p Policy) Options {
	o := DefaultOptions(p)
	o.InstrPerCore = 3000
	o.Warmup = 800
	return o
}

func apps16() []string {
	wl := StandardWorkloads()[0]
	return wl.Apps
}

func TestRunValidation(t *testing.T) {
	o := tinyOptions(SNUCA)
	o.Apps = []string{"mcf"}
	if _, err := Run(o); err == nil {
		t.Error("app/core mismatch must error")
	}
	o.Apps = make([]string, 16)
	for i := range o.Apps {
		o.Apps[i] = "nosuchapp"
	}
	if _, err := Run(o); err == nil {
		t.Error("unknown app must error")
	}
}

func TestRunBasics(t *testing.T) {
	o := tinyOptions(ReNUCA)
	o.Apps = apps16()
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "Re-NUCA" {
		t.Errorf("policy %q", rep.Policy)
	}
	if rep.LLCWrites() == 0 {
		t.Error("no LLC writes recorded")
	}
	if len(rep.BankLifetimes) != 16 {
		t.Errorf("%d bank lifetimes", len(rep.BankLifetimes))
	}
}

func TestSensitivityKnobsApply(t *testing.T) {
	o := tinyOptions(SNUCA)
	o.Apps = apps16()
	o.L2Bytes = 128 << 10
	o.L3BankBytes = 1 << 20
	o.ROBEntries = 168
	o.CriticalityThresholdPct = 25
	cfg, err := config(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L2.SizeBytes != 128<<10 || cfg.LLC.BankBytes != 1<<20 ||
		cfg.CPU.ROBEntries != 168 || cfg.CPT.ThresholdPct != 25 {
		t.Errorf("knobs not applied: %+v", cfg)
	}
	if _, err := Run(o); err != nil {
		t.Fatalf("sensitivity run failed: %v", err)
	}
}

func TestRunSuiteAggregation(t *testing.T) {
	wls := workload.Standard(16)[:2]
	sr, err := RunSuite(tinyOptions(SNUCA), wls)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Reports) != 2 {
		t.Fatalf("%d reports", len(sr.Reports))
	}
	if len(sr.BankHMeanLifetimes) != 16 {
		t.Fatalf("%d bank h-means", len(sr.BankHMeanLifetimes))
	}
	if sr.RawMinLifetime <= 0 || sr.HMeanLifetime <= 0 || sr.MeanIPC <= 0 {
		t.Errorf("aggregates not positive: %+v", sr)
	}
	// Raw minimum is a min over everything, so it cannot exceed any h-mean.
	for b, h := range sr.BankHMeanLifetimes {
		if sr.RawMinLifetime > h+1e-9 {
			t.Errorf("raw min %v exceeds bank %d h-mean %v", sr.RawMinLifetime, b, h)
		}
	}
	if sr.Reports[0].Workload != "WL1" || sr.Reports[1].Workload != "WL2" {
		t.Error("workload names not threaded through")
	}
}

// TestNewSystemRejectsTagOverflow: cache sizes small enough that their
// tags overflow a cache frame at the 16-core address width (or that do not
// divide into their ways at all) are Options errors, never panics.
func TestNewSystemRejectsTagOverflow(t *testing.T) {
	for _, mod := range []func(*Options){
		func(o *Options) { o.L2Bytes = 64 },
		func(o *Options) { o.L2Bytes = 512 },
		func(o *Options) { o.L3BankBytes = 1 << 10 },
	} {
		o := tinyOptions(ReNUCA)
		o.Apps = apps16()
		mod(&o)
		if _, err := NewSystem(o); err == nil {
			t.Errorf("L2Bytes=%d L3BankBytes=%d built; want an error", o.L2Bytes, o.L3BankBytes)
		}
	}
}

func TestPoliciesComplete(t *testing.T) {
	if len(Policies()) != 5 {
		t.Error("expected 5 policies")
	}
	if SNUCA.String() != "S-NUCA" || ReNUCA.String() != "Re-NUCA" {
		t.Error("policy re-exports broken")
	}
}

func TestExtensionKnobs(t *testing.T) {
	o := tinyOptions(ReNUCA)
	o.Apps = apps16()
	o.IntraBankWL = true
	o.ReRAMWriteLatency = 250
	cfg, err := config(o)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.LLC.IntraBankWL {
		t.Error("intra-bank extension not applied")
	}
	if cfg.LLC.WriteLatency != 250 || cfg.LLC.WriteOccupancy != 50 {
		t.Errorf("write latency knob: lat=%d occ=%d", cfg.LLC.WriteLatency, cfg.LLC.WriteOccupancy)
	}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinFirstFailure() <= 0 {
		t.Errorf("first-failure min %v", rep.MinFirstFailure())
	}
	if rep.MinFirstFailure() > rep.MinLifetime+1e-9 {
		t.Errorf("first-failure (%v) cannot exceed capacity lifetime (%v)",
			rep.MinFirstFailure(), rep.MinLifetime)
	}
}

func TestSlowWritesDoNotSlowReNUCAMuch(t *testing.T) {
	// Writes are posted: quadrupling the ReRAM write latency should cost
	// only bank-occupancy interference, not a proportional slowdown.
	base := tinyOptions(ReNUCA)
	base.Apps = apps16()
	fast, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.ReRAMWriteLatency = 400
	slowRep, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowRep.MeanIPC < 0.7*fast.MeanIPC {
		t.Errorf("4x write latency collapsed IPC: %v -> %v", fast.MeanIPC, slowRep.MeanIPC)
	}
}

func TestDeriveSeed(t *testing.T) {
	// Stable: same tuple, same seed (pin one value so accidental algorithm
	// changes are caught — the derivation is part of the repro contract).
	a := DeriveSeed(1, "actual", "S-NUCA")
	if b := DeriveSeed(1, "actual", "S-NUCA"); a != b {
		t.Errorf("unstable: %x vs %x", a, b)
	}
	// Sensitive to every component.
	seen := map[uint64]string{a: "base"}
	for name, s := range map[string]uint64{
		"seed":     DeriveSeed(2, "actual", "S-NUCA"),
		"variant":  DeriveSeed(1, "l2-128", "S-NUCA"),
		"policy":   DeriveSeed(1, "actual", "R-NUCA"),
		"chain":    DeriveSeed(DeriveSeed(1, "actual", "S-NUCA"), "WL1"),
		"boundary": DeriveSeed(1, "actualS", "-NUCA"),
	} {
		if prev, dup := seen[s]; dup {
			t.Errorf("collision between %s and %s", name, prev)
		}
		seen[s] = name
	}
	if DeriveSeed(0) == 0 {
		t.Error("derived seed must be nonzero")
	}
}

func TestRunSuiteOnMatchesSerial(t *testing.T) {
	// The parallel suite must equal the serial one exactly, per workload.
	wls := workload.Standard(16)[:3]
	serial, err := RunSuiteOn(pool.New(1), tinyOptions(ReNUCA), wls)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuiteOn(pool.New(4), tinyOptions(ReNUCA), wls)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Reports) != 3 || len(parallel.Reports) != 3 {
		t.Fatalf("report counts: %d vs %d", len(serial.Reports), len(parallel.Reports))
	}
	for i := range serial.Reports {
		s, p := serial.Reports[i], parallel.Reports[i]
		if s.Workload != p.Workload || s.MeanIPC != p.MeanIPC || s.MinLifetime != p.MinLifetime {
			t.Errorf("report %d diverged: serial {%s %v %v} parallel {%s %v %v}",
				i, s.Workload, s.MeanIPC, s.MinLifetime, p.Workload, p.MeanIPC, p.MinLifetime)
		}
	}
	if serial.RawMinLifetime != parallel.RawMinLifetime ||
		serial.MeanIPC != parallel.MeanIPC ||
		serial.HMeanLifetime != parallel.HMeanLifetime {
		t.Errorf("aggregates diverged: %+v vs %+v", serial, parallel)
	}
}

func TestRunSuiteOnErrorPath(t *testing.T) {
	wls := workload.Standard(16)[:3]
	wls[1].Apps = append([]string{"nosuchapp"}, wls[1].Apps[1:]...)
	_, err := RunSuiteOn(pool.New(4), tinyOptions(SNUCA), wls)
	if err == nil {
		t.Fatal("bad workload must fail the suite")
	}
	if !strings.Contains(err.Error(), "WL2") {
		t.Errorf("error %q does not name the failing workload", err)
	}
}
