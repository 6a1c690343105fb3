//go:build simcheck

package cpu

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestSanitizerCatchesFreedProducerSlot points a pending consumer at the
// ROB head as its producer and commits the head: the slot would be reused
// while the consumer still reads it, so the commit hook must panic.
func TestSanitizerCatchesFreedProducerSlot(t *testing.T) {
	instrs := []trace.Instr{
		{Kind: trace.Load, PC: 1, Addr: 0x100},
		{Kind: trace.Load, PC: 2, Addr: 0x200, DepDist: 1},
	}
	c := MustNewScripted(0, DefaultConfig(), &orderMem{loadLat: 5}, instrs)
	c.Tick(0)
	if len(c.pending) != 1 {
		t.Fatalf("%d pending ops, want the dependent load deferred", len(c.pending))
	}
	// Corrupt: hold the consumer pending far past its producer's
	// completion, which no legal schedule does, so the producer at the
	// head commits first.
	c.pending[0].minReady = 1 << 40
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "sancheck:") || !strings.Contains(msg, "commits ROB slot 0") {
			t.Fatalf("panic %v, want the freed-producer-slot check", r)
		}
	}()
	run(c, 100)
}
