//go:build simcheck

package sim

import (
	"strings"
	"testing"

	"repro/internal/nuca"
	"repro/internal/sancheck"
)

// TestSanitizerArmedEndToEnd runs a small window of every policy with the
// simcheck sanitizer armed, on Table I and across the knobs the paper
// sweeps: L2 128/256 KiB × LLC bank 1/2 MiB × ROB 128/168 entries, each
// with the intra-bank wear-leveling extension off and on. Any address-
// ownership, cache-conservation, NoC, DRAM or wear invariant violation
// panics out of RunMeasured, so a clean pass here is the end-to-end
// certificate that normal simulator traffic satisfies all architectural
// invariants — not just the unit-level cases in each package's sancheck
// tests.
func TestSanitizerArmedEndToEnd(t *testing.T) {
	if !sancheck.Enabled {
		t.Fatal("simcheck build tag set but sancheck.Enabled is false")
	}
	for _, l2 := range []uint64{128 << 10, 256 << 10} {
		for _, bank := range []uint64{1 << 20, 2 << 20} {
			for _, rob := range []int{128, 168} {
				for _, wl := range []bool{false, true} {
					for _, p := range nuca.Policies() {
						cfg := DefaultConfig(p)
						cfg.L2.SizeBytes = l2
						cfg.LLC.BankBytes = bank
						cfg.CPU.ROBEntries = rob
						cfg.LLC.IntraBankWL = wl
						s, err := New(cfg, testApps(cfg.Cores))
						if err != nil {
							t.Fatal(err)
						}
						if _, err := s.RunMeasured(500, 2000); err != nil {
							t.Fatalf("policy %v, L2 %d KiB, bank %d KiB, ROB %d, intra-bank WL %v under simcheck: %v",
								p, l2>>10, bank>>10, rob, wl, err)
						}
					}
				}
			}
		}
	}
}

// TestSanitizerCatchesForeignLine puts a line from core 1's address window
// into core 0's L1 and L2, which only a broken paddr could do, and asserts
// the armed sanitizer panics on each fill. It then leaves such a line in
// core 0's L2 and evicts it from the LLC, where the shootdown would visit
// core 1's caches alone: that must panic too.
func TestSanitizerCatchesForeignLine(t *testing.T) {
	s := smallSystem(t, nuca.SNUCA)
	pa := paddr(1, 0x4000)
	for _, tc := range []struct {
		level string
		fill  func()
	}{
		{"L1D", func() { s.fillL1(0, pa, false, 0) }},
		{"L2", func() { s.fillL2(0, pa, 0) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sancheck:") || !strings.Contains(msg, "of core 1's address window into "+tc.level+".0") {
					t.Errorf("%s: panic %q, want the foreign-line diagnostic", tc.level, msg)
				}
			}()
			tc.fill()
		}()
	}
	s = smallSystem(t, nuca.SNUCA)
	s.l2[0].Fill(pa, false)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "sancheck:") || !strings.Contains(msg, "LLC evicts core 1's line") || !strings.Contains(msg, "cores [0] also hold it") {
			t.Errorf("eviction: panic %q, want the sole-owner diagnostic", msg)
		}
	}()
	s.handleLLCVictim(cacheVictim{Valid: true, Addr: pa}, 0)
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
