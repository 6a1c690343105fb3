package fixture

import (
	"math/rand"
	"time"
)

// annotated timing is the sanctioned escape hatch for harness banners.
func annotated() time.Time {
	//lint:allow nondeterminism harness banner reports wall-clock
	return time.Now()
}

func annotatedSameLine(start time.Time) time.Duration {
	return time.Since(start) //lint:allow nondeterminism harness banner reports wall-clock
}

// simClock converts simulated cycles to seconds — the deterministic way to
// measure time inside the simulator.
func simClock(cycle uint64, hz float64) float64 {
	return float64(cycle) / hz
}

// methodDraws on a generator handed in are not package-level calls; the
// constructor that built the generator is where the analyzer reports.
func methodDraws(r *rand.Rand) int {
	return r.Intn(10)
}
