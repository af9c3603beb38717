package stats

import "math"

// Autocorrelation returns the sample autocorrelation of xs at the given
// lags. It returns NaN at a lag when the series is too short or has zero
// variance.
func Autocorrelation(xs []float64, lags []int) []float64 {
	n := len(xs)
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	if n > 0 {
		mean /= float64(n)
	}
	var variance float64
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	out := make([]float64, len(lags))
	for i, lag := range lags {
		if lag < 0 || lag >= n || variance == 0 {
			out[i] = math.NaN()
			continue
		}
		cov := 0.0
		for j := 0; j+lag < n; j++ {
			cov += (xs[j] - mean) * (xs[j+lag] - mean)
		}
		out[i] = cov / variance
	}
	return out
}

// CoefficientOfVariation returns std/mean of xs (0 for an empty or
// zero-mean series).
func CoefficientOfVariation(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.Mean() == 0 {
		return 0
	}
	return w.Std() / w.Mean()
}
