package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Period-4 square wave: strong positive correlation at lag 4,
	// negative at lag 2.
	xs := make([]float64, 400)
	for i := range xs {
		if i%4 < 2 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	ac := Autocorrelation(xs, []int{0, 2, 4})
	if math.Abs(ac[0]-1) > 1e-9 {
		t.Errorf("lag 0 = %v, want 1", ac[0])
	}
	if ac[1] > -0.9 {
		t.Errorf("lag 2 = %v, want ≈ -1", ac[1])
	}
	if ac[2] < 0.9 {
		t.Errorf("lag 4 = %v, want ≈ 1", ac[2])
	}
}

func TestAutocorrelationWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	ac := Autocorrelation(xs, []int{1, 10, 50})
	for i, a := range ac {
		if math.Abs(a) > 0.06 {
			t.Errorf("white noise autocorrelation %d = %v, want ≈ 0", i, a)
		}
	}
}

func TestAutocorrelationEdgeCases(t *testing.T) {
	ac := Autocorrelation([]float64{1, 1, 1}, []int{0, 1, 5, -1})
	for i, a := range ac {
		if !math.IsNaN(a) {
			t.Errorf("constant series lag index %d = %v, want NaN", i, a)
		}
	}
	if got := Autocorrelation(nil, []int{0}); !math.IsNaN(got[0]) {
		t.Error("empty series should be NaN")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant CV = %v", got)
	}
	if got := CoefficientOfVariation(nil); got != 0 {
		t.Errorf("empty CV = %v", got)
	}
	cv := CoefficientOfVariation([]float64{1, 3})
	if math.Abs(cv-math.Sqrt2/2) > 1e-12 {
		t.Errorf("CV = %v, want %v", cv, math.Sqrt2/2)
	}
}
