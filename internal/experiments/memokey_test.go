package experiments

import (
	"errors"
	"testing"
)

// TestMemoKeySeparatesEntries drives the memo slots Table2 and
// ThresholdSweep use and counts computations: a filled slot is replayed,
// not recomputed, filling one slot leaves the other empty, and a failed
// computation stores nothing, so the next request retries.
func TestMemoKeySeparatesEntries(t *testing.T) {
	r := NewRunner(DefaultParams())
	calls := 0
	rows := func() ([]Table2Row, error) {
		calls++
		return []Table2Row{{App: "mcf"}}, nil
	}

	for i := 0; i < 2; i++ {
		if _, err := memo(&r.table2, rows); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("two requests ran the computation %d times, want 1", calls)
	}
	if r.sweep != nil {
		t.Fatalf("filling the table2 slot filled the sweep slot: %+v", r.sweep)
	}

	boom := errors.New("boom")
	if _, err := memo(&r.sweep, func() ([]ThresholdPoint, error) { return []ThresholdPoint{{}}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if r.sweep != nil {
		t.Fatalf("failed computation was stored: %+v", r.sweep)
	}
	got, err := memo(&r.sweep, func() ([]ThresholdPoint, error) { return []ThresholdPoint{{App: "mcf"}}, nil })
	if err != nil || len(got) != 1 || r.sweep == nil {
		t.Fatalf("retry after a failure = %+v, %v; want it computed and stored", got, err)
	}
}
