package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestMemoKeyCoversResultAffectingParams mutates every result-affecting
// Params field and checks the Flight memo key changes, while the
// result-invariant execution knob (Workers — byte-identical output for any
// value, enforced by the CI smoke diffs) deliberately does not.
func TestMemoKeyCoversResultAffectingParams(t *testing.T) {
	base := NewRunner(DefaultParams()).memoKey("suite")

	affecting := []func(*Params){
		func(p *Params) { p.InstrPerCore++ },
		func(p *Params) { p.Warmup++ },
		func(p *Params) { p.CharInstr++ },
		func(p *Params) { p.CharWarmup++ },
		func(p *Params) { p.Seed++ },
		func(p *Params) { p.QueueModel = !p.QueueModel },
		func(p *Params) { p.L2Bytes += 4096 },
		func(p *Params) { p.L3BankBytes += 4096 },
		func(p *Params) { p.ROBEntries += 8 },
		func(p *Params) { p.CriticalityThresholdPct++ },
		func(p *Params) { p.IntraBankWL = !p.IntraBankWL },
		func(p *Params) { p.ReRAMWriteLatency += 10 },
		func(p *Params) { p.BankContentionWindow += 10 },
	}
	for i, mut := range affecting {
		p := DefaultParams()
		mut(&p)
		if got := NewRunner(p).memoKey("suite"); got == base {
			t.Errorf("result-affecting mutation #%d did not change the memo key %q: two configurations would alias one memo entry", i, got)
		}
	}

	invariant := []func(*Params){
		func(p *Params) { p.Workers += 3 },
	}
	for i, mut := range invariant {
		p := DefaultParams()
		mut(&p)
		if got := NewRunner(p).memoKey("suite"); got != base {
			t.Errorf("result-invariant mutation #%d changed the memo key to %q: it would fragment the cache for identical results", i, got)
		}
	}

	if a, b := NewRunner(DefaultParams()).memoKey("suite"), NewRunner(DefaultParams()).memoKey("table2"); a == b {
		t.Errorf("different base labels produced the same memo key %q", a)
	}
}

// TestMemoKeySeparatesFlightEntries is the regression test for the memo
// aliasing hazard: a Runner whose Params change between suite requests
// (e.g. a derived configuration arming the queue model) must compute, not
// replay, the entry cached for the old configuration. It drives the same
// suiteFlight + memoKey path suiteSet uses and counts closure executions.
func TestMemoKeySeparatesFlightEntries(t *testing.T) {
	r := NewRunner(DefaultParams())
	calls := 0
	run := func() (map[string]core.SuiteReport, error) {
		calls++
		return map[string]core.SuiteReport{}, nil
	}

	if _, err := r.suiteFlight.Do(r.memoKey("actual"), run); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("first request ran the suite %d times, want 1", calls)
	}

	// Same configuration again: memo hit, no recomputation.
	if _, err := r.suiteFlight.Do(r.memoKey("actual"), run); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("identical configuration recomputed (calls = %d, want 1)", calls)
	}

	// A result-affecting change must miss: before memoKey folded Params
	// into the key, this second request replayed the queue-off result.
	r.P.QueueModel = true
	if _, err := r.suiteFlight.Do(r.memoKey("actual"), run); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("queue-model configuration aliased the cached entry (calls = %d, want 2)", calls)
	}

	// Restoring the original configuration hits its original entry.
	r.P.QueueModel = false
	if _, err := r.suiteFlight.Do(r.memoKey("actual"), run); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("restored configuration recomputed instead of hitting its entry (calls = %d, want 2)", calls)
	}
	if got := r.suiteFlight.Len(); got != 2 {
		t.Fatalf("Flight holds %d entries, want 2 (one per configuration)", got)
	}
}
