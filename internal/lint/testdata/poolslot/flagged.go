//lint:as repro/internal/sim

// Package fixture is the poolslot analyzer's negative corpus: goroutine
// launches outside internal/pool, joined or not.
package fixture

import "sync"

func joinedFanOut(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // want `bare goroutine`
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func fireAndForget(fn func()) {
	go fn() // want `bare goroutine`
}
