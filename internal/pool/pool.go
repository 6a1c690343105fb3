// Package pool provides the concurrency substrate of the parallel
// experiment harness: a bounded worker pool whose slots are shared by every
// concurrently-launched experiment, and a generic singleflight-style Flight
// that memoises expensive results per key while deduplicating concurrent
// computations of the same key.
//
// The determinism contract is positional: Map hands every task its index
// and the caller writes results into a pre-sized slice at that index, so
// aggregation and rendering happen in task order no matter which worker
// finished first. Simulations themselves must not share mutable state —
// each task constructs its own sim.System — which is what makes the
// parallel output byte-identical to the serial one.
package pool

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
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

// Pool is a bounded set of execution slots. A single Pool is shared across
// every suite and characterisation run a Runner launches, so total
// simulation concurrency — and therefore peak memory — is capped at Size
// regardless of how many experiments are in flight. Coordinator goroutines
// (per-policy, per-variant fan-out) hold no slot while they wait on their
// leaf tasks, so nesting Map calls cannot deadlock.
type Pool struct {
	sem chan struct{}
}

// New builds a pool with the given number of slots (minimum 1).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Size returns the slot count.
func (p *Pool) Size() int { return cap(p.sem) }

// Coordinate runs fn(0), fn(1), … fn(n-1) concurrently WITHOUT occupying
// pool slots and waits for all of them, returning the error with the lowest
// index. It exists for coordinator fan-out — per-policy or per-variant
// goroutines whose leaf simulations gate on a shared Pool via Map. A
// coordinator must not hold a slot while its children queue for slots, or
// nested fan-out could deadlock; renuca-lint's poolslot analyzer therefore
// requires all goroutine launches in the experiment layer to route through
// either Map or Coordinate.
func Coordinate(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errIdx   = n
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		// Coordinate IS the sanctioned launch point; poolslot only scans
		// the experiment layer, so no allow is needed here.
		go func(i int) {
			defer wg.Done()
			if err := fn(i); err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// Map runs fn(0), fn(1), … fn(n-1), each occupying one pool slot, and waits
// for all of them. The first error cancels the remainder: tasks that have
// not started yet are skipped, tasks already running drain normally, and
// the error reported is the one with the lowest index among those observed.
// fn must confine its side effects to index i of the caller's result slice.
func (p *Pool) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// A single-slot pool can never overlap two tasks, so the goroutine
	// fan-out only adds scheduler churn and cross-goroutine cache traffic —
	// measurably slower than serial on GOMAXPROCS=1 runners, where
	// DefaultWorkers resolves to exactly this width. Run the tasks inline
	// in the caller's goroutine instead, still taking the slot per task so
	// the global concurrency cap holds across concurrent Map callers: index
	// order and stop-at-first-error are exactly what one slot draining an
	// ordered queue produces.
	if cap(p.sem) == 1 {
		for i := 0; i < n; i++ {
			p.sem <- struct{}{}
			err := fn(i)
			<-p.sem
			if err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errIdx   = n
		stopped  bool
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.sem <- struct{}{}
			defer func() { <-p.sem }()
			mu.Lock()
			skip := stopped
			mu.Unlock()
			if skip {
				return
			}
			if err := fn(i); err != nil {
				mu.Lock()
				stopped = true
				if i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
