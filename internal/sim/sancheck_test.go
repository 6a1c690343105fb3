//go:build simcheck

package sim

import (
	"strings"
	"testing"

	"repro/internal/nuca"
	"repro/internal/sancheck"
)

// TestSanitizerArmedEndToEnd runs a small window of every policy with the
// simcheck sanitizer armed, on Table I and on each geometry the paper
// sweeps: L2 128/256 KiB × LLC bank 1/2 MiB. Any MESI, cache-conservation,
// NoC, DRAM or wear invariant violation panics out of RunMeasured, so a
// clean pass here is the end-to-end certificate that normal simulator
// traffic satisfies all architectural invariants — not just the unit-level
// cases in each package's sancheck tests.
func TestSanitizerArmedEndToEnd(t *testing.T) {
	if !sancheck.Enabled {
		t.Fatal("simcheck build tag set but sancheck.Enabled is false")
	}
	for _, l2 := range []uint64{128 << 10, 256 << 10} {
		for _, bank := range []uint64{1 << 20, 2 << 20} {
			for _, p := range nuca.Policies() {
				cfg := DefaultConfig(p)
				cfg.L2.SizeBytes = l2
				cfg.LLC.BankBytes = bank
				s, err := New(cfg, testApps(cfg.Cores))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.RunMeasured(500, 2000); err != nil {
					t.Fatalf("policy %v, L2 %d KiB, bank %d KiB under simcheck: %v", p, l2>>10, bank>>10, err)
				}
			}
		}
	}
}

// TestSanitizerCatchesUnchargedSharing puts a second core onto a line
// another core holds, through the directory, and asserts the armed
// sanitizer panics on each acquire whose downgrade or remote write-back
// the walk would leave uncharged.
func TestSanitizerCatchesUnchargedSharing(t *testing.T) {
	const line = 0x4000
	for _, tc := range []struct {
		name     string
		owner    func(s *System) // core 1's copy
		forStore bool            // core 0's acquire
		want     string
	}{
		{"read of an E line", func(s *System) { s.dir.ReadAcquire(line, 1) }, false, "downgrades 0x2 and dirty write-back false"},
		{"read of an M line", func(s *System) { s.dir.WriteAcquire(line, 1) }, false, "downgrades 0x2 and dirty write-back true"},
		{"write of an M line", func(s *System) { s.dir.WriteAcquire(line, 1) }, true, "downgrades 0x0 and dirty write-back true"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := smallSystem(t, nuca.SNUCA)
			tc.owner(s)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sancheck:") || !strings.Contains(msg, "core 0 acquires line 0x4000 with "+tc.want) {
					t.Errorf("panic %q, want the uncharged-sharing diagnostic naming %q", msg, tc.want)
				}
			}()
			s.acquire(line, 0, tc.forStore)
		})
	}
	// A write to an S or E line invalidates the other copies, which the
	// walk does, and charges nothing else: no panic.
	s := smallSystem(t, nuca.SNUCA)
	s.dir.ReadAcquire(line, 1)
	s.acquire(line, 0, true)
}

// TestSanitizerCatchesFillOfResidentLine fills a line into a core's L1 and
// L2 while they already hold it, what a fill path that skipped its miss
// would do, and asserts the armed sanitizer panics before the second copy
// lands.
func TestSanitizerCatchesFillOfResidentLine(t *testing.T) {
	s := smallSystem(t, nuca.SNUCA)
	const pa = 0x4000
	for _, tc := range []struct {
		level string
		fill  func()
	}{
		{"L1D", func() { s.l1[0].Fill(pa, false); s.fillL1(0, pa, false, 0) }},
		{"L2", func() { s.l2[0].Fill(pa, false); s.fillL2(0, pa, 0) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sancheck:") || !strings.Contains(msg, tc.level+".0, which already holds it") {
					t.Errorf("%s: panic %q, want the resident-line diagnostic", tc.level, msg)
				}
			}()
			tc.fill()
		}()
	}
}
