package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHarmonicMeanKnownValues(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 2}, 2},
		{[]float64{1, 2}, 4.0 / 3.0},
		{[]float64{1, 4, 4}, 2},
		{nil, 0},
	}
	for _, c := range cases {
		if got := HarmonicMean(c.in); !almostEqual(got, c.want) {
			t.Errorf("HarmonicMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHarmonicMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive input")
		}
	}()
	HarmonicMean([]float64{1, 0, 2})
}

func TestHarmonicLeqGeoLeqArithmetic(t *testing.T) {
	// Classic mean inequality on positive inputs: H <= G <= A.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v > 1e-6 && v < 1e12 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		h, g, a := HarmonicMean(xs), GeoMean(xs), Mean(xs)
		const tol = 1e-6
		return h <= g*(1+tol) && g <= a*(1+tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); !almostEqual(got, 2.8) {
		t.Errorf("Mean = %v, want 2.8", got)
	}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty slice")
		}
	}()
	Min(nil)
}

func TestPercentImprovement(t *testing.T) {
	if got := PercentImprovement(1.05, 1.0); !almostEqual(got, 5) {
		t.Errorf("got %v, want 5", got)
	}
	if got := PercentImprovement(0.9, 1.0); !almostEqual(got, -10) {
		t.Errorf("got %v, want -10", got)
	}
}

func TestCoeffVariation(t *testing.T) {
	if got := CoeffVariation([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant slice CV = %v, want 0", got)
	}
	if got := CoeffVariation([]float64{1}); got != 0 {
		t.Errorf("single-element CV = %v, want 0", got)
	}
	// Values 0 and 2: mean 1, stddev 1 (population), CV 1.
	if got := CoeffVariation([]float64{0, 2}); !almostEqual(got, 1) {
		t.Errorf("CV = %v, want 1", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); got != 0 {
		t.Errorf("empty GeoMean = %v, want 0", got)
	}
	if got := GeoMean([]float64{2, 8}); !almostEqual(got, 4) {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive input")
		}
	}()
	GeoMean([]float64{1, -2})
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty slice")
		}
	}()
	Max(nil)
}

func TestPercentImprovementPanicsOnZeroBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PercentImprovement(1, 0)
}

func TestHarmonicMeanOfConstantIsConstant(t *testing.T) {
	if got := HarmonicMean([]float64{3.5, 3.5, 3.5, 3.5}); !almostEqual(got, 3.5) {
		t.Errorf("H-mean of constants = %v", got)
	}
}
