package predictor

import "testing"

// denseCPT is the reference CPT: one entry per table index, stored in
// place. It shares the hash, the tag check, the counter packing and the
// prediction arithmetic with CPT through the entry type and predict, and
// differs only in where an index's entry lives.
type denseCPT struct {
	c     *CPT // supplies cfg, mask, intThresh and stats
	table []entry
}

func newDenseCPT(cfg Config) *denseCPT {
	return &denseCPT{c: MustNew(cfg), table: make([]entry, cfg.Entries)}
}

func (d *denseCPT) Issue(pc uint64) bool {
	e := &d.table[d.c.slot(pc)]
	critical := d.c.predict(e, pc)
	if e.key == pc+1 && e.counts&countMask != countMask {
		e.counts++
	}
	return critical
}

func (d *denseCPT) OnROBBlock(pc uint64) {
	e := &d.table[d.c.slot(pc)]
	if e.key == pc+1 && e.counts>>countShift != countMask {
		e.counts += 1 << countShift
	}
}

func (d *denseCPT) OnLoadCommit(pc uint64, predicted, blocked bool) {
	s := &d.c.stats
	if predicted == blocked {
		s.Correct++
	} else {
		s.Incorrect++
	}
	switch {
	case predicted && blocked:
		s.TruePositive++
	case predicted && !blocked:
		s.FalsePositive++
	case !predicted && blocked:
		s.FalseNegative++
	default:
		s.TrueNegative++
	}
	e := &d.table[d.c.slot(pc)]
	if e.key == pc+1 {
		return
	}
	if e.key != 0 {
		s.Conflicts++
	}
	s.Inserts++
	var rb uint64
	if blocked {
		rb = 1
	}
	*e = entry{key: pc + 1, counts: rb<<countShift | 1}
}

func (d *denseCPT) Lookup(pc uint64) (numLoads, robBlock uint64, ok bool) {
	if e := d.table[d.c.slot(pc)]; e.key == pc+1 {
		return e.numLoads(), e.robBlock(), true
	}
	return 0, 0, false
}

// TestSparseMatchesDense drives the sparse CPT and the dense reference
// with one seeded random stream of Issue/OnROBBlock/OnLoadCommit over a
// Table II-sized PC set in which groups of PCs share a table index, and
// requires identical predictions, Lookup results and Stats throughout.
func TestSparseMatchesDense(t *testing.T) {
	for _, threshold := range []float64{10, 2.5} { // integral and float compare paths
		cfg := Config{Entries: 4096, ThresholdPct: threshold}
		sparse, dense := MustNew(cfg), newDenseCPT(cfg)
		rng := lcg(1)

		// 30 indices shared by three PCs each, plus 30 PCs of their own.
		randPC := func() uint64 { return rng.next() & (1<<40 - 1) &^ 3 }
		used := make(map[uint64]bool)
		var pcs []uint64
		for len(used) < 60 {
			pc := randPC()
			i := sparse.slot(pc)
			if used[i] {
				continue
			}
			used[i] = true
			pcs = append(pcs, pc)
			for n := 1; n < 3 && len(used) <= 30; {
				if other := randPC(); sparse.slot(other) == i {
					pcs = append(pcs, other)
					n++
				}
			}
		}

		for step := 0; step < 200_000; step++ {
			pc := pcs[rng.intn(len(pcs))]
			blocked := rng.intn(8) == 0
			got, want := sparse.Issue(pc), dense.Issue(pc)
			if got != want {
				t.Fatalf("x=%v step %d pc %#x: Issue %v, dense %v", threshold, step, pc, got, want)
			}
			if blocked {
				sparse.OnROBBlock(pc)
				dense.OnROBBlock(pc)
			}
			sparse.OnLoadCommit(pc, got, blocked)
			dense.OnLoadCommit(pc, want, blocked)
			probe := pcs[rng.intn(len(pcs))]
			gn, gr, gok := sparse.Lookup(probe)
			wn, wr, wok := dense.Lookup(probe)
			if gn != wn || gr != wr || gok != wok {
				t.Fatalf("x=%v step %d: Lookup(%#x) = %d,%d,%v, dense %d,%d,%v", threshold, step, probe, gn, gr, gok, wn, wr, wok)
			}
		}
		if sparse.Stats() != dense.c.Stats() {
			t.Errorf("x=%v: stats diverge: %+v vs %+v", threshold, sparse.Stats(), dense.c.Stats())
		}
		if sparse.Stats().Conflicts == 0 {
			t.Errorf("x=%v: no conflicts; the PC set must share indices", threshold)
		}
		if n := len(sparse.entries) - 1; n != len(used) {
			t.Errorf("x=%v: %d entries stored for %d indices used", threshold, n, len(used))
		}
	}
}

// lcg is the tests' seeded pseudo-random stream (Knuth's MMIX LCG); the
// high bits are the well-mixed ones.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) intn(n int) int { return int(r.next() >> 33 % uint64(n)) }
