package predictor

import (
	"testing"
	"testing/quick"
)

func cpt(threshold float64) *CPT {
	return MustNew(Config{Entries: 256, ThresholdPct: threshold})
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Entries: 0, ThresholdPct: 3},
		{Entries: 3, ThresholdPct: 3},
		{Entries: 256, ThresholdPct: 0},
		{Entries: 256, ThresholdPct: 101},
		{Entries: -4, ThresholdPct: 3},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestUnknownPCPredictsNonCritical(t *testing.T) {
	c := cpt(3)
	if c.Predict(0x400) {
		t.Error("first touch must predict non-critical (paper's lifetime-first presumption)")
	}
}

func TestInsertOnCommitThenCounts(t *testing.T) {
	c := cpt(3)
	pc := uint64(0x1000)
	c.OnLoadCommit(pc, false, true) // insert with robBlock=1
	n, rb, ok := c.Lookup(pc)
	if !ok || n != 1 || rb != 1 {
		t.Fatalf("after insert: n=%d rb=%d ok=%v", n, rb, ok)
	}
	c.Issue(pc)
	c.OnROBBlock(pc)
	n, rb, _ = c.Lookup(pc)
	if n != 2 || rb != 2 {
		t.Errorf("after issue+block: n=%d rb=%d, want 2,2", n, rb)
	}
}

func TestIssueOnUnknownPCIsNoop(t *testing.T) {
	c := cpt(3)
	c.Issue(0x99)
	c.OnROBBlock(0x99)
	if _, _, ok := c.Lookup(0x99); ok {
		t.Error("issue/block must not insert entries; only commit does")
	}
}

func TestThresholdSemantics(t *testing.T) {
	// PC blocked once in 10 loads = 10% block rate.
	build := func(th float64) *CPT {
		c := cpt(th)
		c.OnLoadCommit(0x10, false, true) // 1 load, 1 block
		for i := 0; i < 9; i++ {
			c.Issue(0x10) // 10 loads, 1 block
		}
		return c
	}
	if !build(3).Predict(0x10) {
		t.Error("10% block rate must be critical at 3% threshold")
	}
	if !build(10).Predict(0x10) {
		t.Error("10% block rate must be critical at exactly 10% (>= comparison)")
	}
	if build(25).Predict(0x10) {
		t.Error("10% block rate must be non-critical at 25% threshold")
	}
	if build(100).Predict(0x10) {
		t.Error("10% block rate must be non-critical at 100% threshold")
	}
}

func TestHundredPercentThresholdIsStringent(t *testing.T) {
	c := cpt(100)
	c.OnLoadCommit(0x20, false, true)
	if !c.Predict(0x20) {
		t.Error("1/1 blocked: critical even at 100%")
	}
	c.Issue(0x20) // 2 loads, 1 block = 50%
	if c.Predict(0x20) {
		t.Error("50% block rate is below a 100% threshold")
	}
}

func TestAccuracyAccounting(t *testing.T) {
	c := cpt(3)
	c.OnLoadCommit(0x1, true, true)   // TP
	c.OnLoadCommit(0x2, false, false) // TN
	c.OnLoadCommit(0x3, true, false)  // FP
	c.OnLoadCommit(0x4, false, true)  // FN
	s := c.Stats()
	if s.TruePositive != 1 || s.TrueNegative != 1 || s.FalsePositive != 1 || s.FalseNegative != 1 {
		t.Errorf("confusion matrix wrong: %+v", s)
	}
	if s.Correct != 2 || s.Incorrect != 2 || s.Accuracy() != 0.5 {
		t.Errorf("accuracy accounting wrong: %+v", s)
	}
}

func TestEmptyAccuracyIsZero(t *testing.T) {
	if (Stats{}).Accuracy() != 0 {
		t.Error("accuracy of no outcomes should be 0")
	}
}

func TestConflictReplacement(t *testing.T) {
	c := MustNew(Config{Entries: 1, ThresholdPct: 3}) // everything collides
	c.OnLoadCommit(0xA, false, true)
	c.OnLoadCommit(0xB, false, false) // replaces 0xA
	if _, _, ok := c.Lookup(0xA); ok {
		t.Error("0xA should have been replaced")
	}
	if _, _, ok := c.Lookup(0xB); !ok {
		t.Error("0xB should be resident")
	}
	if c.Stats().Conflicts != 1 {
		t.Errorf("conflicts = %d, want 1", c.Stats().Conflicts)
	}
}

func TestRecommitSamePCDoesNotReinsert(t *testing.T) {
	c := cpt(3)
	c.OnLoadCommit(0x30, false, true)
	c.Issue(0x30)
	c.OnLoadCommit(0x30, false, false) // entry exists: counters preserved
	n, rb, _ := c.Lookup(0x30)
	if n != 2 || rb != 1 {
		t.Errorf("recommit clobbered counters: n=%d rb=%d, want 2,1", n, rb)
	}
	if c.Stats().Inserts != 1 {
		t.Errorf("inserts = %d, want 1", c.Stats().Inserts)
	}
}

func TestAlwaysBlockingPCBecomesCritical(t *testing.T) {
	c := cpt(3)
	pc := uint64(0xCAFE)
	c.OnLoadCommit(pc, false, true)
	for i := 0; i < 100; i++ {
		pred := c.Issue(pc)
		c.OnROBBlock(pc)
		c.OnLoadCommit(pc, pred, true)
	}
	if !c.Predict(pc) {
		t.Error("PC that always blocks must be predicted critical")
	}
	if acc := c.Stats().Accuracy(); acc < 0.99 {
		t.Errorf("steady-state accuracy %v, want ~1", acc)
	}
}

func TestNeverBlockingPCStaysNonCritical(t *testing.T) {
	c := cpt(3)
	pc := uint64(0xBEEF)
	c.OnLoadCommit(pc, false, false)
	for i := 0; i < 1000; i++ {
		if c.Issue(pc) {
			t.Fatalf("iteration %d: never-blocking PC predicted critical", i)
		}
		c.OnLoadCommit(pc, false, false)
	}
}

// TestIssueIsPredictThenBump pins the fused issue probe against its
// definition: on twin tables fed one random load stream, Issue must return
// the prediction Predict makes before the numLoads bump, leave the same
// counters as the bump, and keep Stats identical.
func TestIssueIsPredictThenBump(t *testing.T) {
	fused, split := MustNew(Config{Entries: 16, ThresholdPct: 10}), MustNew(Config{Entries: 16, ThresholdPct: 10})
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 20_000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		pc := (state >> 40 % 48) * 4 // 48 PCs over 16 entries: conflicts too
		blocked := state>>20%7 == 0
		want := split.Predict(pc)
		if e := split.probe(pc); e.key == pc+1 && e.counts&countMask != countMask {
			e.counts++
		}
		if got := fused.Issue(pc); got != want {
			t.Fatalf("load %d pc %#x: Issue %v, Predict-then-bump %v", i, pc, got, want)
		}
		for _, c := range []*CPT{fused, split} {
			if blocked {
				c.OnROBBlock(pc)
			}
			c.OnLoadCommit(pc, want, blocked)
		}
	}
	if fused.Stats() != split.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", fused.Stats(), split.Stats())
	}
	for i := range fused.index {
		if f, s := fused.entries[fused.index[i]], split.entries[split.index[i]]; f != s {
			t.Fatalf("entry %d diverges: %+v vs %+v", i, f, s)
		}
	}
}

// Property: lower thresholds never predict fewer PCs critical than higher
// thresholds given identical histories (monotonicity in x).
func TestThresholdMonotonicityProperty(t *testing.T) {
	f := func(blocks []bool) bool {
		if len(blocks) == 0 {
			return true
		}
		lo, hi := cpt(3), cpt(50)
		pc := uint64(0x77)
		lo.OnLoadCommit(pc, false, blocks[0])
		hi.OnLoadCommit(pc, false, blocks[0])
		for _, b := range blocks[1:] {
			lo.Issue(pc)
			hi.Issue(pc)
			if b {
				lo.OnROBBlock(pc)
				hi.OnROBBlock(pc)
			}
		}
		// If the high threshold says critical, the low one must too.
		return !hi.Predict(pc) || lo.Predict(pc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResetStatsKeepsTable(t *testing.T) {
	c := cpt(3)
	c.OnLoadCommit(0x1, false, true)
	c.Predict(0x1)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("stats not zeroed")
	}
	if _, _, ok := c.Lookup(0x1); !ok {
		t.Error("learned table must survive ResetStats")
	}
}
