package core

import (
	"testing"

	"repro/internal/nuca"
)

// TestBankContentionCountersOnWriteHeavyWorkload is the end-to-end check
// of the bank contention counters on a real workload: reads and writes
// both find their bank busy and wait within the window, some requests slip
// past a bank busy beyond it, and no counted wait exceeds the window.
// Slowing ReRAM writes must add write-induced contention: more read wait
// cycles and more slips.
func TestBankContentionCountersOnWriteHeavyWorkload(t *testing.T) {
	wl := StandardWorkloads()[0]
	base := DefaultOptions(SNUCA)
	base.Apps = wl.Apps
	base.InstrPerCore = 60_000
	base.Warmup = 20_000

	rep, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	q := rep.LLC.Queue
	if q.ReadQueued == 0 || q.ReadWaitCycles == 0 || q.WriteQueued == 0 {
		t.Errorf("banks never made a request wait: %+v", q)
	}
	if q.Slipped == 0 {
		t.Error("no request slipped on a write-heavy workload; the window is never exceeded")
	}
	if q.ReadWaitCycles > nuca.BankContentionWindow*q.ReadQueued ||
		q.WriteWaitCycles > nuca.BankContentionWindow*q.WriteQueued {
		t.Errorf("counted waits exceed the %d-cycle window: %+v", nuca.BankContentionWindow, q)
	}

	slow := base
	slow.ReRAMWriteLatency = 400
	srep, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if sq := srep.LLC.Queue; sq.ReadWaitCycles <= q.ReadWaitCycles || sq.Slipped <= q.Slipped {
		t.Errorf("400-cycle writes did not add contention: %+v, against %+v at 100 cycles", sq, q)
	}
}

// TestBankContentionDeterministic pins that the contention counters keep
// the repo's determinism contract: two runs of the identical unit agree on
// every LLC counter.
func TestBankContentionDeterministic(t *testing.T) {
	wl := StandardWorkloads()[1]
	o := DefaultOptions(ReNUCA)
	o.Apps = wl.Apps
	o.InstrPerCore = 40_000
	o.Warmup = 15_000
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.LLC.Queue.ReadQueued == 0 {
		t.Fatal("no bank waits recorded")
	}
	if a.LLC != b.LLC {
		t.Errorf("LLC stats diverge between identical runs: %+v vs %+v", a.LLC, b.LLC)
	}
}
