package pool

import (
	"errors"
	"fmt"
	"runtime"
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
	for _, c := range []struct{ workers, n int }{{1, 20}, {2, 20}, {4, 20}, {8, 3}} {
		p := New(c.workers)
		var cur, max, ran atomic.Int64
		err := p.Map(c.n, func(int) error {
			ran.Add(1)
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
		if got := max.Load(); got > int64(min(c.workers, c.n)) {
			t.Errorf("workers=%d n=%d: observed %d concurrent tasks", c.workers, c.n, got)
		}
		if got := ran.Load(); got != int64(c.n) {
			t.Errorf("workers=%d n=%d: ran %d tasks", c.workers, c.n, got)
		}
	}

	// With fewer tasks than workers every task still gets its own worker:
	// three tasks that each wait for the other two all finish.
	var started sync.WaitGroup
	started.Add(3)
	err := New(8).Map(3, func(int) error {
		started.Done()
		started.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

// TestMapNestedDoesNotDeadlock calls Map from inside a Map task on the same
// pool. A pool that held a slot per running task would deadlock on one
// slot; Map's workers belong to the call, so the inner batch runs on the
// outer task's goroutine (and its own workers).
func TestMapNestedDoesNotDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := New(workers)
		done := make(chan error, 1)
		var inner atomic.Int64
		go func() {
			done <- p.Map(3, func(int) error {
				return p.Map(4, func(int) error {
					inner.Add(1)
					return nil
				})
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: nested Map did not complete", workers)
		}
		if got := inner.Load(); got != 12 {
			t.Errorf("workers=%d: ran %d inner tasks, want 12", workers, got)
		}
	}
}

// TestMapLeavesNoGoroutines pins Map's join at runtime: every worker a Map
// call launches has exited shortly after the call returns, whether the
// batch ran to completion, stopped at an error, or nested a second Map
// inside its tasks.
func TestMapLeavesNoGoroutines(t *testing.T) {
	p := New(8)
	boom := errors.New("boom")
	for _, c := range []struct {
		name  string
		batch func() error
		want  error
	}{
		{"complete", func() error {
			return p.Map(64, func(int) error { return nil })
		}, nil},
		{"error-stopped", func() error {
			return p.Map(64, func(i int) error {
				if i == 5 {
					return boom
				}
				return nil
			})
		}, boom},
		{"nested", func() error {
			return p.Map(8, func(int) error {
				return p.Map(8, func(int) error { return nil })
			})
		}, nil},
	} {
		before := runtime.NumGoroutine()
		if err := c.batch(); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		// A worker signals the join just before it returns, so give the
		// runtime up to a second to retire it.
		for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after Map returned, %d before", c.name, got, before)
		}
	}
}

// TestMapSingleSlotRunsInline pins the single-worker case: a pool of width
// 1 runs its tasks in the caller's goroutine, in strict index order, and
// stops at the first error with exactly the earlier tasks executed — no
// goroutine fan-out, no out-of-order starts. GOMAXPROCS=1 runners, where
// DefaultWorkers resolves to 1, pay no scheduler churn for zero
// parallelism.
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
