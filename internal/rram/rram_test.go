package rram

import (
	"math"
	"testing"
	"testing/quick"
)

func tiny() *Wear {
	return MustNew(Config{Banks: 4, FramesPerBank: 16, Endurance: 1e6, ClockHz: 1e9, CapYears: 50})
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Banks: 0, FramesPerBank: 16, Endurance: 1, ClockHz: 1, CapYears: 1},
		{Banks: 4, FramesPerBank: 0, Endurance: 1, ClockHz: 1, CapYears: 1},
		{Banks: 4, FramesPerBank: 16, Endurance: 0, ClockHz: 1, CapYears: 1},
		{Banks: 4, FramesPerBank: 16, Endurance: 1, ClockHz: 0, CapYears: 1},
		{Banks: 4, FramesPerBank: 16, Endurance: 1, ClockHz: 1, CapYears: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Banks != 16 {
		t.Errorf("banks = %d, want 16", cfg.Banks)
	}
	if cfg.FramesPerBank != 32768 {
		t.Errorf("frames = %d, want 32768 (2MB of 64B lines)", cfg.FramesPerBank)
	}
	if cfg.Endurance != 1e11 {
		t.Errorf("endurance = %v, want 1e11", cfg.Endurance)
	}
	if cfg.ClockHz != 2.4e9 {
		t.Errorf("clock = %v, want 2.4GHz", cfg.ClockHz)
	}
}

func TestRecordWriteAccounting(t *testing.T) {
	w := tiny()
	w.RecordWrite(0, 3)
	w.RecordWrite(0, 3)
	w.RecordWrite(0, 5)
	w.RecordWrite(2, 0)
	if w.BankWrites(0) != 3 || w.BankWrites(1) != 0 || w.BankWrites(2) != 1 {
		t.Errorf("bank writes: %d %d %d", w.BankWrites(0), w.BankWrites(1), w.BankWrites(2))
	}
	if w.MaxFrameWrites(0) != 2 {
		t.Errorf("max frame writes = %d, want 2", w.MaxFrameWrites(0))
	}
	if w.TotalWrites() != 4 {
		t.Errorf("total = %d, want 4", w.TotalWrites())
	}
}

func TestLifetimeMath(t *testing.T) {
	// 16 frames, endurance 1e6, clock 1e9. Charge 16 writes to bank 0 over
	// 1e9 cycles (= 1 second): mean frame rate = 1 write/s, so capacity
	// lifetime = 1e6 seconds.
	w := tiny()
	for f := uint64(0); f < 16; f++ {
		w.RecordWrite(0, f)
	}
	got := w.CapacityLifetimeYears(0, 1e9)
	want := 1e6 / SecondsPerYear
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("capacity lifetime = %v years, want %v", got, want)
	}
	// Hottest frame saw 1 write in 1 second: first-failure also 1e6 s.
	if ff := w.FirstFailureLifetimeYears(0, 1e9); math.Abs(ff-want)/want > 1e-9 {
		t.Errorf("first-failure lifetime = %v, want %v", ff, want)
	}
}

func TestFirstFailureLeqCapacityLifetime(t *testing.T) {
	f := func(ops []uint16) bool {
		w := tiny()
		for _, op := range ops {
			w.RecordWrite(int(op%4), uint64(op/4%16))
		}
		for b := 0; b < 4; b++ {
			ff := w.FirstFailureLifetimeYears(b, 1e6)
			cap := w.CapacityLifetimeYears(b, 1e6)
			if ff > cap+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZeroWritesHitsCap(t *testing.T) {
	w := tiny()
	if got := w.CapacityLifetimeYears(1, 1e9); got != 50 {
		t.Errorf("untouched bank lifetime = %v, want cap 50", got)
	}
	if got := w.CapacityLifetimeYears(1, 0); got != 50 {
		t.Errorf("zero-cycle lifetime = %v, want cap 50", got)
	}
}

func TestMoreWritesShorterLifetime(t *testing.T) {
	w := tiny()
	w.RecordWrite(0, 0)
	for i := 0; i < 100; i++ {
		w.RecordWrite(1, uint64(i%16))
	}
	lo := w.CapacityLifetimeYears(1, 1e9)
	hi := w.CapacityLifetimeYears(0, 1e9)
	if lo >= hi {
		t.Errorf("heavily-written bank lifetime %v should be below lightly-written %v", lo, hi)
	}
}

func TestCapacityLifetimesVector(t *testing.T) {
	w := tiny()
	w.RecordWrite(3, 0)
	ls := w.CapacityLifetimes(1e9)
	if len(ls) != 4 {
		t.Fatalf("len = %d, want 4", len(ls))
	}
	for b, l := range ls {
		if l <= 0 || l > 50 {
			t.Errorf("bank %d lifetime %v out of (0,50]", b, l)
		}
	}
	if ls[3] >= ls[0] {
		t.Error("written bank should have lower lifetime than untouched")
	}
}

func TestWriteImbalance(t *testing.T) {
	w := tiny()
	if got := w.WriteImbalance(); got != 1 {
		t.Errorf("empty imbalance = %v, want 1", got)
	}
	// Perfectly level: one write per bank.
	for b := 0; b < 4; b++ {
		w.RecordWrite(b, 0)
	}
	if got := w.WriteImbalance(); got != 1 {
		t.Errorf("level imbalance = %v, want 1", got)
	}
	// All extra writes to bank 0.
	for i := 0; i < 4; i++ {
		w.RecordWrite(0, 1)
	}
	if got := w.WriteImbalance(); got != 2.5 {
		t.Errorf("skewed imbalance = %v, want 2.5 (max 5 / mean 2)", got)
	}
}

func TestReset(t *testing.T) {
	w := tiny()
	w.RecordWrite(0, 0)
	w.Reset()
	if w.TotalWrites() != 0 || w.MaxFrameWrites(0) != 0 {
		t.Error("reset did not clear counters")
	}
}

// TestCarryKeepsCountsExact drives one frame across the 8-bit low word's
// wrap, once and many times over, with a second frame of the same bank
// written around it, and checks the bank's counters and first-failure
// lifetime against their closed forms, then that Reset drops the carries.
func TestCarryKeepsCountsExact(t *testing.T) {
	for _, n := range []uint64{255, 256, 1_000, 70_000} {
		w := tiny()
		w.RecordWrite(1, 4)
		w.RecordWrite(1, 4)
		for range n {
			w.RecordWrite(1, 3)
		}
		for range 3 {
			w.RecordWrite(1, 4)
		}
		if got := w.MaxFrameWrites(1); got != n {
			t.Errorf("n=%d: MaxFrameWrites = %d, want %d", n, got, n)
		}
		if got := w.BankWrites(1); got != n+5 {
			t.Errorf("n=%d: BankWrites = %d, want %d", n, got, n+5)
		}
		// 1e9 cycles at 1GHz is one second, so the hottest frame's rate is n
		// writes a second against an endurance of 1e6.
		want := 1e6 / float64(n) / SecondsPerYear
		if got := w.FirstFailureLifetimeYears(1, 1e9); math.Abs(got-want)/want > 1e-12 {
			t.Errorf("n=%d: first-failure lifetime = %v years, want %v", n, got, want)
		}
		if wrapped := n > 1<<8-1; (w.high != nil) != wrapped {
			t.Errorf("n=%d: carries %v, want a carry only past 255 writes", n, w.high)
		}

		w.Reset()
		if w.high != nil {
			t.Errorf("n=%d: Reset kept carries %v", n, w.high)
		}
		w.RecordWrite(1, 3)
		if got := w.MaxFrameWrites(1); got != 1 {
			t.Errorf("n=%d: MaxFrameWrites after Reset and one write = %d, want 1", n, got)
		}
	}
}

func TestRecordWritePanicsOnBadBank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tiny().RecordWrite(9, 0)
}
