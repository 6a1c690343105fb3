//go:build simcheck

package rram

import (
	"strings"
	"testing"
)

// TestSanitizerCatchesCorruptCounters corrupts the wear bookkeeping by
// hand and asserts the armed sanitizer panics on the next recorded write,
// naming the bank and what went wrong. The low word of a frame wraps
// legally into its carry, so the wrap case corrupts the carry itself: a
// full count one write short of 2^64 wraps to zero. The monotonicity case
// lowers the bank's hottest-frame counter below the sanitizer's shadow.
func TestSanitizerCatchesCorruptCounters(t *testing.T) {
	const i = 1*16 + 5 // bank 1, frame 5
	for _, tc := range []struct {
		name    string
		corrupt func(w *Wear)
		frame   uint64
		frags   []string
	}{
		{
			name: "wrap",
			corrupt: func(w *Wear) {
				w.frames[i] = ^uint8(0)
				w.high = map[uint64]uint64{i: 1<<56 - 1}
			},
			frame: 5,
			frags: []string{"bank 1", "frame 5", "wrapped"},
		},
		{
			name:    "monotonicity",
			corrupt: func(w *Wear) { w.maxFrame[1] = 0 },
			frame:   6,
			frags:   []string{"bank 1", "moved backwards"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := MustNew(Config{Banks: 2, FramesPerBank: 16, Endurance: 1e11, ClockHz: 2.4e9, CapYears: 50})
			for range 3 {
				w.RecordWrite(1, 5)
			}
			tc.corrupt(w)

			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("sanitizer did not catch the corrupted counter")
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				for _, frag := range append([]string{"sancheck:"}, tc.frags...) {
					if !strings.Contains(msg, frag) {
						t.Errorf("panic %q does not name %q", msg, frag)
					}
				}
			}()
			w.RecordWrite(1, tc.frame)
		})
	}
}

// TestSanitizerAcceptsLegalWear records writes across banks, a low-word
// wrap into the carry, and a Reset (wear restarts legally from zero) with
// the sanitizer armed.
func TestSanitizerAcceptsLegalWear(t *testing.T) {
	w := MustNew(Config{Banks: 2, FramesPerBank: 16, Endurance: 1e11, ClockHz: 2.4e9, CapYears: 50})
	for i := 0; i < 100; i++ {
		w.RecordWrite(i%2, uint64(i)%16)
	}
	for range 1 << 16 {
		w.RecordWrite(1, 7)
	}
	w.Reset()
	w.RecordWrite(0, 3) // monotonicity shadow must have been cleared
}
