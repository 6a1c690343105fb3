package predictor

import "testing"

// benchLoad is one dynamic load of the probe workload.
type benchLoad struct {
	pc      uint64
	blocked bool
}

// tableIILoads returns a Table II-like set of 112 static load PCs, in four
// regions of 64, 32, 8 and 8 (hot, pointer-chase, stream and chain) eight
// bytes apart within a region, and a 4096-load stream over them in which
// one load in eight blocks the ROB head.
func tableIILoads() (pcs []uint64, stream []benchLoad) {
	for r, n := range []int{64, 32, 8, 8} {
		base := (uint64(r)+1)*0x9E3779B97F4A7C15>>24&^3 | 0x400000
		for i := 0; i < n; i++ {
			pcs = append(pcs, base+8*uint64(i))
		}
	}
	stream = make([]benchLoad, 1<<12)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range stream {
		state = state*6364136223846793005 + 1442695040888963407
		stream[i] = benchLoad{pc: pcs[state>>33%uint64(len(pcs))], blocked: state>>20&7 == 0}
	}
	return pcs, stream
}

// probeLoad drives one load through the CPT as a core does: Issue at
// issue time, OnROBBlock when it blocks the ROB head, OnLoadCommit at
// commit.
func probeLoad(c *CPT, l benchLoad) {
	crit := c.Issue(l.pc)
	if l.blocked {
		c.OnROBBlock(l.pc)
	}
	c.OnLoadCommit(l.pc, crit, l.blocked)
}

// BenchmarkCPT measures the predictor probe per load over tableIILoads on
// the default 4096-entry table, after every PC has been inserted.
func BenchmarkCPT(b *testing.B) {
	c := MustNew(DefaultConfig())
	pcs, stream := tableIILoads()
	for _, pc := range pcs {
		c.OnLoadCommit(pc, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeLoad(c, stream[i&(len(stream)-1)])
	}
}

// TestCPTProbeDoesNotAllocate: inserting a Table II app's load PCs into
// a fresh table and probing them allocates nothing, because the entry
// store is preallocated for more PCs than any app has.
func TestCPTProbeDoesNotAllocate(t *testing.T) {
	_, stream := tableIILoads()
	// AllocsPerRun calls the function once before measuring; each call
	// gets a fresh table so the measured one inserts every PC.
	tables := []*CPT{MustNew(DefaultConfig()), MustNew(DefaultConfig())}
	k := 0
	if n := testing.AllocsPerRun(1, func() {
		c := tables[k]
		k++
		for _, l := range stream {
			probeLoad(c, l)
		}
	}); n != 0 {
		t.Errorf("inserting and probing %d loads allocated %v times, want 0", len(stream), n)
	}
	if got := tables[1].Stats().Inserts; got != 112 {
		t.Fatalf("measured table inserted %d PCs, want 112", got)
	}
}
