package pool

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaultWorkers(t *testing.T) {
	workers := func(explicit int) int {
		t.Helper()
		n, err := DefaultWorkers(explicit)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := workers(7); got != 7 {
		t.Errorf("explicit request: got %d, want 7", got)
	}
	t.Setenv("RENUCA_WORKERS", "3")
	if got := workers(0); got != 3 {
		t.Errorf("env override: got %d, want 3", got)
	}
	if got := workers(2); got != 2 {
		t.Errorf("explicit beats env: got %d, want 2", got)
	}
	for _, v := range []string{"garbage", "0", "-2", "5000000000"} {
		t.Setenv("RENUCA_WORKERS", v)
		if _, err := DefaultWorkers(0); err == nil || !strings.Contains(err.Error(), "RENUCA_WORKERS") {
			t.Errorf("RENUCA_WORKERS=%q: got error %v, want one naming RENUCA_WORKERS", v, err)
		}
		if got := workers(4); got != 4 {
			t.Errorf("explicit request with RENUCA_WORKERS=%q: got %d, want 4", v, got)
		}
	}
}

func TestNewClampsToOne(t *testing.T) {
	if got := New(0).Size(); got != 1 {
		t.Errorf("Size() = %d, want 1", got)
	}
	if got := New(-5).Size(); got != 1 {
		t.Errorf("Size() = %d, want 1", got)
	}
}

func TestMapIndexesResults(t *testing.T) {
	p := New(4)
	const n = 50
	out := make([]int, n)
	err := p.Map(n, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapRespectsBound(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		var cur, max atomic.Int64
		err := p.Map(20, func(int) error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := max.Load(); got > int64(workers) {
			t.Errorf("workers=%d: observed %d concurrent tasks", workers, got)
		}
	}
}

func TestMapFirstErrorWinsAndSkipsRest(t *testing.T) {
	p := New(2)
	boom := errors.New("boom")
	var ran atomic.Int64
	err := p.Map(100, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Tasks queued behind the failure must have been skipped (the exact
	// count depends on scheduling, but nowhere near all 100 may run after
	// an error with only 2 slots).
	if ran.Load() == 100 {
		t.Error("no task was skipped after the error")
	}
}

func TestMapPrefersLowestIndexError(t *testing.T) {
	// Give every task a slot and hold them at a barrier until all have
	// started, so all 8 errors are observed; the reported one must then be
	// task 0's.
	p := New(8)
	var started sync.WaitGroup
	started.Add(8)
	err := p.Map(8, func(i int) error {
		started.Done()
		started.Wait()
		return fmt.Errorf("task %d failed", i)
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := err.Error(); got != "task 0 failed" {
		t.Errorf("err = %q, want task 0's error", got)
	}
}

func TestMapZeroTasks(t *testing.T) {
	if err := New(2).Map(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestMapSharedAcrossConcurrentCalls(t *testing.T) {
	// Two concurrent Maps share one pool: the bound holds globally.
	p := New(2)
	var cur, max atomic.Int64
	task := func(int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Map(10, task); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Errorf("observed %d concurrent tasks across Maps, want <= 2", got)
	}
}

func TestCoordinateRunsAllTasks(t *testing.T) {
	const n = 16
	out := make([]int, n)
	if err := Coordinate(n, func(i int) error {
		out[i] = i + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
	if err := Coordinate(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatePrefersLowestIndexError(t *testing.T) {
	// Unlike Map, Coordinate never skips: every task runs even after an
	// error, and the lowest-index error is the one reported.
	var ran atomic.Int64
	var started sync.WaitGroup
	started.Add(8)
	err := Coordinate(8, func(i int) error {
		started.Done()
		started.Wait()
		ran.Add(1)
		if i%2 == 1 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 1 failed" {
		t.Errorf("err = %v, want task 1's error", err)
	}
	if got := ran.Load(); got != 8 {
		t.Errorf("ran %d tasks, want all 8", got)
	}
}

func TestFlightMemoisesAndDeduplicates(t *testing.T) {
	var f Flight[string, int]
	var calls atomic.Int64
	compute := func() (int, error) {
		calls.Add(1)
		time.Sleep(5 * time.Millisecond)
		return 42, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Do("k", compute)
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	// Memoised: a later call must not recompute.
	if v, _ := f.Do("k", func() (int, error) { t.Error("recomputed"); return 0, nil }); v != 42 {
		t.Errorf("memoised value = %d", v)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}
}

func TestFlightForgetsErrors(t *testing.T) {
	var f Flight[string, int]
	boom := errors.New("boom")
	if _, err := f.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if f.Len() != 0 {
		t.Fatalf("failed call retained: Len = %d", f.Len())
	}
	v, err := f.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

// TestMapSingleSlotRunsInline pins the single-slot fast path: a pool of
// width 1 must run its tasks in the caller's goroutine, in strict index
// order, and stop at the first error with exactly the earlier tasks
// executed — no goroutine fan-out, no out-of-order starts. This is the
// serial fallback that keeps GOMAXPROCS=1 runners (where DefaultWorkers
// resolves to 1) from paying scheduler churn for zero parallelism.
func TestMapSingleSlotRunsInline(t *testing.T) {
	p := New(1)

	var order []int
	err := p.Map(20, func(i int) error {
		order = append(order, i) // unsynchronised on purpose: inline means no race
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 20 {
		t.Fatalf("ran %d tasks, want 20", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("task order %v: position %d ran task %d, want strict index order", order, i, v)
		}
	}

	boom := errors.New("boom")
	var ran []int
	err = p.Map(20, func(i int) error {
		ran = append(ran, i)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; len(ran) != len(want) {
		t.Fatalf("after error at 5 ran %v, want exactly %v", ran, want)
	}
}
