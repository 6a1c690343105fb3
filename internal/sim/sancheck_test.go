//go:build simcheck

package sim

import (
	"strings"
	"testing"

	"repro/internal/nuca"
	"repro/internal/sancheck"
)

// TestSanitizerArmedEndToEnd runs a small window of every policy with the
// simcheck sanitizer armed. Any MESI, cache-conservation, NoC, DRAM or wear
// invariant violation panics out of RunMeasured, so a clean pass here is the
// end-to-end certificate that normal simulator traffic satisfies all
// architectural invariants — not just the unit-level cases in each package's
// sancheck tests.
func TestSanitizerArmedEndToEnd(t *testing.T) {
	if !sancheck.Enabled {
		t.Fatal("simcheck build tag set but sancheck.Enabled is false")
	}
	for _, p := range nuca.Policies() {
		s := smallSystem(t, p)
		if _, err := s.RunMeasured(500, 2000); err != nil {
			t.Fatalf("policy %v under simcheck: %v", p, err)
		}
	}
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
