package coherence

import (
	"testing"
	"testing/quick"
)

func dir() *Directory { return MustNewDirectory(16) }

func TestNewDirectoryValidation(t *testing.T) {
	for _, n := range []int{0, -1, 17, 64, 65} {
		if _, err := NewDirectory(n); err == nil {
			t.Errorf("core count %d: expected error", n)
		}
	}
	if _, err := NewDirectory(16); err != nil {
		t.Errorf("16 cores should be accepted: %v", err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("MESI letters wrong")
	}
	if State(9).String() != "?" {
		t.Error("unknown state")
	}
}

func TestFirstReaderGetsExclusive(t *testing.T) {
	d := dir()
	down, wb := d.ReadAcquire(0x40, 2)
	if down != 0 || wb {
		t.Errorf("first read: downgraded=%b wb=%v", down, wb)
	}
	if d.StateOf(0x40) != Exclusive {
		t.Errorf("state %v, want E", d.StateOf(0x40))
	}
	if s := d.Sharers(0x40); len(s) != 1 || s[0] != 2 {
		t.Errorf("sharers %v", s)
	}
}

func TestSecondReaderDowngradesToShared(t *testing.T) {
	d := dir()
	d.ReadAcquire(0x40, 0)
	down, wb := d.ReadAcquire(0x40, 1)
	if down != 1<<0 || wb {
		t.Errorf("downgraded=%b wb=%v, want core-0 bit false", down, wb)
	}
	if d.StateOf(0x40) != Shared {
		t.Errorf("state %v, want S", d.StateOf(0x40))
	}
	if len(d.Sharers(0x40)) != 2 {
		t.Errorf("sharers %v", d.Sharers(0x40))
	}
}

func TestReadOfModifiedForcesWriteback(t *testing.T) {
	d := dir()
	d.WriteAcquire(0x80, 0) // core 0 holds M
	down, wb := d.ReadAcquire(0x80, 1)
	if !wb {
		t.Error("reading a remote M line must write back dirty data")
	}
	if down != 1<<0 {
		t.Errorf("downgraded %b, want core-0 bit", down)
	}
	if d.StateOf(0x80) != Shared {
		t.Errorf("state %v, want S", d.StateOf(0x80))
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := dir()
	d.ReadAcquire(0xC0, 0)
	d.ReadAcquire(0xC0, 1)
	d.ReadAcquire(0xC0, 2)
	inv, wb := d.WriteAcquire(0xC0, 1)
	if wb {
		t.Error("no dirty copy existed")
	}
	if inv != 1<<0|1<<2 {
		t.Errorf("invalidated %b, want cores 0 and 2", inv)
	}
	if d.StateOf(0xC0) != Modified {
		t.Errorf("state %v, want M", d.StateOf(0xC0))
	}
	if s := d.Sharers(0xC0); len(s) != 1 || s[0] != 1 {
		t.Errorf("sharers %v, want [1]", s)
	}
}

func TestWriteOfRemoteModified(t *testing.T) {
	d := dir()
	d.WriteAcquire(0x100, 0)
	inv, wb := d.WriteAcquire(0x100, 5)
	if !wb || inv != 1<<0 {
		t.Errorf("inv=%b wb=%v, want core-0 bit true", inv, wb)
	}
	if d.StateOf(0x100) != Modified || d.Sharers(0x100)[0] != 5 {
		t.Error("ownership did not transfer")
	}
}

func TestSilentUpgradeOwnLine(t *testing.T) {
	d := dir()
	d.ReadAcquire(0x140, 3) // E
	inv, wb := d.WriteAcquire(0x140, 3)
	if inv != 0 || wb {
		t.Errorf("upgrading own E line must be silent, got inv=%b wb=%v", inv, wb)
	}
	if d.StateOf(0x140) != Modified {
		t.Errorf("state %v, want M", d.StateOf(0x140))
	}
}

func TestRelease(t *testing.T) {
	d := dir()
	d.ReadAcquire(0x180, 0)
	d.ReadAcquire(0x180, 1)
	d.Release(0x180, 0)
	if s := d.Sharers(0x180); len(s) != 1 || s[0] != 1 {
		t.Errorf("sharers %v, want [1]", s)
	}
	d.Release(0x180, 1)
	if d.StateOf(0x180) != Invalid || d.TrackedLines() != 0 {
		t.Error("line should be untracked after last release")
	}
	// Releasing an untracked line is a no-op.
	d.Release(0x180, 0)
}

func TestReleaseOwnerDowngradesRemaining(t *testing.T) {
	d := dir()
	d.ReadAcquire(0x1C0, 0) // E owned by 0
	d.ReadAcquire(0x1C0, 1) // S
	// Re-acquire E is impossible now; simulate owner release under S.
	d.Release(0x1C0, 0)
	if d.StateOf(0x1C0) != Shared {
		t.Errorf("state %v, want S", d.StateOf(0x1C0))
	}
}

func TestShootdown(t *testing.T) {
	d := dir()
	d.WriteAcquire(0x200, 7)
	holders, dirty := d.Shootdown(0x200)
	if holders != 1<<7 || !dirty {
		t.Errorf("holders=%b dirty=%v, want core-7 bit true", holders, dirty)
	}
	if d.StateOf(0x200) != Invalid {
		t.Error("line should be invalid after shootdown")
	}
	// Shooting down an untracked line is harmless.
	holders, dirty = d.Shootdown(0x200)
	if holders != 0 || dirty {
		t.Error("second shootdown should find nothing")
	}
}

func TestStatsAccumulation(t *testing.T) {
	d := dir()
	d.ReadAcquire(0x40, 0)
	d.ReadAcquire(0x40, 1)  // downgrade
	d.WriteAcquire(0x40, 0) // invalidates 1
	d.Shootdown(0x40)       // invalidates 0, dirty WB
	s := d.Stats()
	if s.ReadMisses != 2 || s.WriteMisses != 1 {
		t.Errorf("miss counts: %+v", s)
	}
	if s.Downgrades != 1 || s.Invalidations != 2 || s.Shootdowns != 1 || s.DirtyWritebacks != 1 {
		t.Errorf("event counts: %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("stats not zeroed")
	}
}

func TestCheckCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dir().ReadAcquire(0, 16)
}

// Property: after any sequence of operations, (1) M/E lines have exactly
// one sharer, (2) sharer sets match the recorded state, (3) tracked lines
// have at least one sharer.
func TestDirectoryInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d := dir()
		addrs := []uint64{0x40, 0x80, 0xC0}
		for _, op := range ops {
			addr := addrs[op%3]
			core := int(op/3) % 16
			switch (op / 48) % 4 {
			case 0:
				d.ReadAcquire(addr, core)
			case 1:
				d.WriteAcquire(addr, core)
			case 2:
				d.Release(addr, core)
			case 3:
				d.Shootdown(addr)
			}
		}
		for _, addr := range addrs {
			st := d.StateOf(addr)
			n := len(d.Sharers(addr))
			switch st {
			case Invalid:
				if n != 0 {
					return false
				}
			case Exclusive, Modified:
				if n != 1 {
					return false
				}
			case Shared:
				if n < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
