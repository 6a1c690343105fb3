// Package stats provides the small statistical toolkit used throughout the
// Re-NUCA reproduction: harmonic means (the paper reports per-bank lifetimes
// as harmonic means over workloads), arithmetic and geometric means, min and
// max, percent improvement over a baseline, and the coefficient of variation
// that summarises per-bank write skew.
package stats

import (
	"fmt"
	"math"
)

// HarmonicMean returns the harmonic mean of xs. It returns 0 when xs is
// empty. Non-positive entries are rejected with a panic, because a harmonic
// mean over lifetimes is only meaningful for positive values and a zero here
// always indicates an accounting bug upstream.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sumInv float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: harmonic mean of non-positive value %v", x))
		}
		sumInv += 1 / x
	}
	return float64(len(xs)) / sumInv
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice.
// Non-positive entries panic for the same reason as HarmonicMean.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sumLog float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geometric mean of non-positive value %v", x))
		}
		sumLog += math.Log(x)
	}
	return math.Exp(sumLog / float64(len(xs)))
}

// Min returns the minimum of xs. It panics on an empty slice: callers use it
// for "raw minimum lifetime" where an empty input means no banks were
// simulated and the experiment is broken.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// PercentImprovement returns 100*(x-base)/base, the form the paper uses for
// "IPC improvement normalised to S-NUCA".
func PercentImprovement(x, base float64) float64 {
	if base == 0 {
		panic("stats: improvement against zero baseline")
	}
	return 100 * (x - base) / base
}

// CoeffVariation returns the coefficient of variation (stddev/mean) of xs,
// used to quantify per-bank write skew. Returns 0 for fewer than two samples
// or zero mean.
func CoeffVariation(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := Mean(xs)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}
