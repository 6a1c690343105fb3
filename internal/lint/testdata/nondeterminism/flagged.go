//lint:as repro/internal/sim

// Package fixture is the nondeterminism analyzer's negative corpus: every
// want comment marks a line the analyzer must flag.
package fixture

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want `time.Now`
	return time.Since(start) // want `time.Since`
}

func globalDraws() (int, float64) {
	n := rand.Intn(10)                 // want `rand.Intn: math/rand`
	f := rand.Float64()                // want `rand.Float64: math/rand`
	rand.Shuffle(n, func(i, j int) {}) // want `rand.Shuffle: math/rand`
	return n, f
}

// Constructors are reported whatever their seed: a literal, a constant
// expression, a package-level variable, or a caller-provided parameter.
func literalSeeded() *rand.Rand {
	src := rand.NewSource(42) // want `rand.NewSource: math/rand`
	return rand.New(src)      // want `rand.New: math/rand`
}

func constExprSeeded() rand.Source {
	const base = 7
	return rand.NewSource(base * 1000) // want `rand.NewSource: math/rand`
}

var packageSeed int64 = 1234

func packageLevelSeed() rand.Source {
	return rand.NewSource(packageSeed) // want `rand.NewSource: math/rand`
}

func derivedSource(seed int64) rand.Source {
	return rand.NewSource(seed) // want `rand.NewSource: math/rand`
}

func v2Generator(seed uint64) *randv2.PCG {
	return randv2.NewPCG(seed, 1) // want `rand.NewPCG: math/rand`
}
