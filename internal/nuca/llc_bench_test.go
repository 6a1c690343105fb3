package nuca

import (
	"testing"

	"repro/internal/rram"
)

// tableILLC builds Table I's 16-bank, 32 MB LLC under policy p.
func tableILLC(b *testing.B, p Policy) *LLC {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Policy = p
	l, err := New(cfg, rram.MustNew(rram.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// lineStream yields line addresses (xorshift): half from a hot set of hot
// lines, half from a cold footprint of 2^24 lines, 32x the Table I LLC, so
// cold lines practically never recur while resident.
type lineStream struct{ x, hot uint64 }

func (s *lineStream) next() uint64 {
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	line := s.x >> 1 % s.hot
	if s.x&1 == 1 {
		line = s.hot + s.x>>1&(1<<24-1)
	}
	return line * 64
}

// llcOp is one LLC request as the simulator issues it: a lookup, then a
// fill on a miss. Every fourth request is an L2 dirty write-back, whose
// miss write-allocates the line. Each line keeps one core and one
// criticality, as a private line of a multiprogrammed workload does, so
// Re-NUCA always probes the banks the line was placed in.
func llcOp(l *LLC, addr uint64, i int) bool {
	core := int(addr>>6) & 15
	critical := addr>>10&1 == 1
	write := i&3 == 3
	if l.Access(addr, core, critical, write).Hit {
		return true
	}
	l.Fill(addr, core, critical, write)
	return false
}

// BenchmarkLLCAccess measures one LLC request (Access, plus Fill on a
// miss) on a Table I LLC warmed past its 512K lines. About half the
// requests go to an 8K-line hot set and hit; the rest miss on the cold
// footprint and evict. Naive pays for its oracle on both: it searches the
// line's set in all 16 banks.
func BenchmarkLLCAccess(b *testing.B) {
	for _, p := range []Policy{NaiveWL, SNUCA, ReNUCA} {
		b.Run(p.String(), func(b *testing.B) {
			l := tableILLC(b, p)
			s := lineStream{x: 0x9e3779b97f4a7c15, hot: 8 << 10}
			for i := 0; i < 3<<19; i++ {
				llcOp(l, s.next(), i)
			}
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if llcOp(l, s.next(), i) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

// BenchmarkBankService measures one bank reservation. Requests arrive two
// cycles apart across the 16 banks, so banks are often busy, and every
// fourth is a write. The banks come from the same line stream as
// BenchmarkLLCAccess.
func BenchmarkBankService(b *testing.B) {
	l := tableILLC(b, SNUCA)
	s := lineStream{x: 0x9e3779b97f4a7c15, hot: 8 << 10}
	var cycle uint64
	op := func(i int) {
		cycle += 2
		l.BankService(l.snucaBank(s.next()), cycle, i&3 == 3)
	}
	for i := 0; i < 1<<16; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
