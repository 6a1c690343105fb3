package nuca

import (
	"math/rand"
	"testing"

	"repro/internal/rram"
)

// contendedLLC builds the 4-bank test LLC with a write-heavy service
// asymmetry (300-cycle, 60-occupancy writes against 100-cycle,
// 4-occupancy reads), so banks are often busy.
func contendedLLC(p Policy) *LLC {
	cfg := Config{
		Policy: p, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64,
		MeshWidth: 2, MeshHeight: 2, BankLatency: 100, WriteLatency: 300,
		BankOccupancy: 4, WriteOccupancy: 60, DirLatency: 20,
	}
	w := rram.MustNew(rram.Config{
		Banks: 4, FramesPerBank: 4096 / 64, Endurance: 1e11, ClockHz: 2.4e9, CapYears: 50,
	})
	return MustNew(cfg, w)
}

// Occupancy conservation, observed externally: n reads all arriving at
// cycle 0 serialise into one gapless busy stretch for as long as the
// backlog fits the contention window, each counted as a wait of i*occ
// cycles. The first read whose wait would exceed the window slips.
func TestQueueOccupancyConservation(t *testing.T) {
	l := contendedLLC(SNUCA)
	occ := uint64(l.Config().BankOccupancy)
	lat := uint64(l.Config().BankLatency)
	n := BankContentionWindow/occ + 1 // reads 0..n-1 wait 0..window cycles
	for i := uint64(0); i < n; i++ {
		if got, want := l.BankService(0, 0, false), i*occ+lat; got != want {
			t.Fatalf("read %d completed at %d, want %d (serialised with charged occupancy)", i, got, want)
		}
	}
	q := l.Stats().Queue
	if q.ReadQueued != n-1 || q.ReadWaitCycles != occ*n*(n-1)/2 || q.Slipped != 0 {
		t.Errorf("after %d reads: %+v, want %d queued for %d cycles and none slipped", n, q, n-1, occ*n*(n-1)/2)
	}
	if got := l.BankService(0, 0, false); got != lat {
		t.Errorf("read behind a %d-cycle backlog completed at %d, want %d (slipped)", n*occ, got, lat)
	}
	if q := l.Stats().Queue; q.Slipped != 1 || q.ReadQueued != n-1 {
		t.Errorf("over-window read: %+v, want it counted as a slip, not a wait", q)
	}
}

// Service order inside the window: against a reference model of the bank
// tails, whatever the arrival jitter, every request begins at its arrival
// or at the bank's reservation tail, whichever is later, unless the tail
// lies beyond the window, in which case it slips and begins at its
// arrival. The wait and slip counters must match the reference exactly.
func TestQueueMonotoneServiceOrder(t *testing.T) {
	l := contendedLLC(SNUCA)
	//lint:allow nondeterminism fixed seed: the draw only shapes arrival jitter; the invariants must hold for any sequence
	rng := rand.New(rand.NewSource(7))
	cfg := l.Config()
	var tail [4]uint64
	var want QueueStats
	for i := 0; i < 2000; i++ {
		bank := rng.Intn(4)
		start := uint64(i) + uint64(rng.Intn(200))
		write := rng.Intn(3) == 0
		lat, occ := uint64(cfg.BankLatency), uint64(cfg.BankOccupancy)
		if write {
			lat, occ = uint64(cfg.WriteLatency), uint64(cfg.WriteOccupancy)
		}
		begin := start
		if tail[bank] > start {
			if wait := tail[bank] - start; wait <= BankContentionWindow {
				begin = tail[bank]
				if write {
					want.WriteQueued++
					want.WriteWaitCycles += wait
				} else {
					want.ReadQueued++
					want.ReadWaitCycles += wait
				}
			} else {
				want.Slipped++
			}
		}
		if got := l.BankService(bank, start, write); got != begin+lat {
			t.Fatalf("op %d on bank %d (arrival %d, tail %d) completed at %d, want %d",
				i, bank, start, tail[bank], got, begin+lat)
		}
		tail[bank] = max(tail[bank], begin+occ)
	}
	if got := l.Stats().Queue; got != want {
		t.Errorf("counters %+v, want %+v", got, want)
	}
	if want.ReadQueued == 0 || want.WriteQueued == 0 || want.Slipped == 0 {
		t.Errorf("traffic exercised too little: %+v", want)
	}
}

// TestQueueWaitCountersBoundedByWindow drives heavy colliding traffic,
// including a far-future reservation, and checks the counters' contract:
// reads and writes both wait, some requests slip, and no counted wait
// exceeds the window, so the summed wait cycles are at most window times
// the queued count.
func TestQueueWaitCountersBoundedByWindow(t *testing.T) {
	l := contendedLLC(SNUCA)
	for i := 0; i < 5000; i++ {
		l.BankService(i%4, uint64(i)*3, i%3 == 0)
	}
	l.BankService(0, 1_000_000, true)
	l.BankService(0, 10, false)

	q := l.Stats().Queue
	if q.ReadQueued == 0 || q.WriteQueued == 0 {
		t.Errorf("colliding traffic queued nothing: %+v", q)
	}
	if q.Slipped == 0 {
		t.Error("far-future reservation did not trip Slipped")
	}
	if q.ReadWaitCycles > BankContentionWindow*q.ReadQueued || q.WriteWaitCycles > BankContentionWindow*q.WriteQueued {
		t.Errorf("counted waits exceed the %d-cycle window: %+v", BankContentionWindow, q)
	}
}

// ResetStats clears the counters (warmup boundary) but keeps the timing
// state: bank tails carry across, like the NoC's link reservations.
func TestQueueResetStatsKeepsModelState(t *testing.T) {
	l := contendedLLC(SNUCA)
	l.BankService(0, 0, true) // tail now at WriteOccupancy
	l.BankService(0, 0, false)
	l.ResetStats()
	if q := l.Stats().Queue; q != (QueueStats{}) {
		t.Errorf("queue counters survived reset: %+v", q)
	}
	// The bank is still busy from before the boundary.
	tail := uint64(l.Config().WriteOccupancy + l.Config().BankOccupancy)
	lat := uint64(l.Config().BankLatency)
	if got := l.BankService(0, 0, false); got != tail+lat {
		t.Errorf("post-reset read completed at %d, want %d (tail must survive reset)", got, tail+lat)
	}
	if q := l.Stats().Queue; q.ReadQueued != 1 || q.ReadWaitCycles != tail {
		t.Errorf("post-reset wait = %+v, want one read queued for %d cycles", q, tail)
	}
}
