package nuca

import (
	"testing"

	"repro/internal/rram"
)

func rotLLC(t *testing.T, period uint64) *LLC {
	t.Helper()
	cfg := Config{
		Policy: SNUCA, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64,
		MeshWidth: 2, MeshHeight: 2, BankLatency: 100, DirLatency: 20,
		IntraBankWL: true, IntraBankPeriod: period,
	}
	w := rram.MustNew(rram.Config{Banks: 4, FramesPerBank: 64, Endurance: 1e11, ClockHz: 1, CapYears: 50})
	return MustNew(cfg, w)
}

func TestRotationRejectsZeroPeriod(t *testing.T) {
	cfg := Config{
		Policy: SNUCA, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64,
		MeshWidth: 2, MeshHeight: 2, IntraBankWL: true,
	}
	w := rram.MustNew(rram.Config{Banks: 4, FramesPerBank: 64, Endurance: 1, ClockHz: 1, CapYears: 1})
	if _, err := New(cfg, w); err == nil {
		t.Error("zero rotation period must be rejected")
	}
}

func TestRotationSpreadsHotFrameWrites(t *testing.T) {
	l := rotLLC(t, 10)
	addr := uint64(0x1000)
	l.Fill(addr, 0, false, false)
	for i := 0; i < 99; i++ {
		l.Access(addr, 0, false, true) // 99 write-back hits to one line
	}
	b := SNUCABank(addr, 64, 4)
	w := l.Wear()
	if w.BankWrites(b) != 100 {
		t.Fatalf("bank writes %d, want 100", w.BankWrites(b))
	}
	// Rotation every 10 writes spreads 100 writes over >= 10 frames, so
	// the hottest physical frame holds at most the period.
	if max := w.MaxFrameWrites(b); max > 10 {
		t.Errorf("hottest frame has %d writes, want <= period (10)", max)
	}
}

func TestWithoutRotationHotFrameConcentrates(t *testing.T) {
	cfg := Config{
		Policy: SNUCA, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64,
		MeshWidth: 2, MeshHeight: 2, BankLatency: 100,
	}
	w := rram.MustNew(rram.Config{Banks: 4, FramesPerBank: 64, Endurance: 1e11, ClockHz: 1, CapYears: 50})
	l := MustNew(cfg, w)
	addr := uint64(0x1000)
	l.Fill(addr, 0, false, false)
	for i := 0; i < 99; i++ {
		l.Access(addr, 0, false, true)
	}
	b := SNUCABank(addr, 64, 4)
	if max := w.MaxFrameWrites(b); max != 100 {
		t.Errorf("without rotation the resident line's frame takes all %d writes, got %d", 100, max)
	}
}

func TestRotationOffsetWraps(t *testing.T) {
	l := rotLLC(t, 1) // rotate every write
	addr := uint64(0x1000)
	l.Fill(addr, 0, false, false)
	// 64 frames per bank: after 200 writes the offset has wrapped thrice
	// without ever indexing out of range (panic would fail the test).
	for i := 0; i < 200; i++ {
		l.Access(addr, 0, false, true)
	}
	b := SNUCABank(addr, 64, 4)
	if got := l.Wear().BankWrites(b); got != 201 {
		t.Errorf("bank writes %d, want 201", got)
	}
}

func TestBankServiceReadVsWrite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteLatency = 300
	w := rram.MustNew(rram.Config{
		Banks: 16, FramesPerBank: cfg.BankBytes / 64, Endurance: 1e11, ClockHz: 1, CapYears: 50,
	})
	l := MustNew(cfg, w)
	read := l.BankService(0, 1000, false) - 1000
	write := l.BankService(1, 1000, true) - 1000
	if read != uint64(cfg.BankLatency) {
		t.Errorf("read service %d, want %d", read, cfg.BankLatency)
	}
	if write != 300 {
		t.Errorf("write service %d, want 300", write)
	}
}

func TestBankServiceSerialisesWithinWindow(t *testing.T) {
	l := smallLLC(SNUCA)
	a := l.BankService(0, 100, false)
	b := l.BankService(0, 100, false) // same bank, same cycle
	if b <= a-uint64(l.Config().BankLatency)+1 {
		t.Errorf("second access not delayed: %d then %d", a, b)
	}
	// A different bank is independent.
	c := l.BankService(1, 100, false)
	if c != 100+uint64(l.Config().BankLatency) {
		t.Errorf("cross-bank access delayed: %d", c)
	}
}

func TestBankServiceFarFutureReservationSlips(t *testing.T) {
	l := smallLLC(SNUCA)
	l.BankService(0, 100_000, true) // far-future write occupancy
	early := l.BankService(0, 100, false)
	if early != 100+uint64(l.Config().BankLatency) {
		t.Errorf("early read stalled behind far-future reservation: %d", early)
	}
	// The shortcut is not silent: the uncharged service is counted as a
	// slip, and charges no wait.
	q := l.Stats().Queue
	if q.Slipped != 1 {
		t.Errorf("Slipped = %d, want 1", q.Slipped)
	}
	if q.ReadQueued != 0 || q.ReadWaitCycles != 0 {
		t.Errorf("slipped read counted as a wait: %+v", q)
	}
}

func TestBankServiceDefaultsFilled(t *testing.T) {
	// Zero WriteLatency/occupancies fall back to read values.
	cfg := Config{
		Policy: SNUCA, NumBanks: 4, BankBytes: 4096, Ways: 4, LineBytes: 64,
		MeshWidth: 2, MeshHeight: 2, BankLatency: 100,
	}
	w := rram.MustNew(rram.Config{Banks: 4, FramesPerBank: 64, Endurance: 1, ClockHz: 1, CapYears: 1})
	l := MustNew(cfg, w)
	if got := l.Config().WriteLatency; got != 100 {
		t.Errorf("write latency default %d, want read latency", got)
	}
	if l.Config().BankOccupancy == 0 || l.Config().WriteOccupancy == 0 {
		t.Error("occupancy defaults not filled")
	}
}
