//lint:as repro/internal/pool

// Package fixture stands in for internal/pool, the one package whose
// goroutines poolslot exempts: nothing here may be reported.
package fixture

import "sync"

func mapWorkers(n int, work func()) {
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
