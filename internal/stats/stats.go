// Package stats provides the small statistics toolkit used by the
// experiments: streaming mean/variance (Welford) with a running minimum,
// percentiles over retained samples, time-series accumulation of cumulative
// counters, autocorrelation and the coefficient of variation.
package stats

import (
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance without retaining samples.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 || x < w.min {
		w.min = x
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for fewer than two samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the minimum sample (0 if empty).
func (w *Welford) Min() float64 { return w.min }

// Sample retains all values to answer percentile queries exactly.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends x.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of samples.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the retained samples (in insertion order unless a
// percentile query has sorted them); the caller must not modify the
// returned slice.
func (s *Sample) Values() []float64 { return s.xs }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the maximum sample (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100), interpolating
// linearly between the two closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// TimeSeries records (time, value) points of a cumulative quantity and can
// answer interval deltas and windowed rates. Times must be non-decreasing.
type TimeSeries struct {
	ts []float64
	vs []float64
}

// Add appends a point. Times must be non-decreasing; out-of-order adds panic.
func (s *TimeSeries) Add(t, v float64) {
	if n := len(s.ts); n > 0 && t < s.ts[n-1] {
		panic("stats: TimeSeries times must be non-decreasing")
	}
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
}

// Last returns the last point, or zeros if empty.
func (s *TimeSeries) Last() (t, v float64) {
	if len(s.ts) == 0 {
		return 0, 0
	}
	return s.ts[len(s.ts)-1], s.vs[len(s.vs)-1]
}

// At returns the value at time t: the value of the latest point with
// time <= t, or 0 if t precedes the first point (cumulative counters
// start at zero).
func (s *TimeSeries) At(t float64) float64 {
	i := sort.SearchFloat64s(s.ts, t)
	// i is the first index with ts[i] >= t; step back over ties to include
	// the last point at exactly t.
	for i < len(s.ts) && s.ts[i] == t {
		i++
	}
	if i == 0 {
		return 0
	}
	return s.vs[i-1]
}

// Delta returns value(t2) - value(t1).
func (s *TimeSeries) Delta(t1, t2 float64) float64 { return s.At(t2) - s.At(t1) }

// Points returns copies of the stored times and values.
func (s *TimeSeries) Points() (ts, vs []float64) {
	ts = append([]float64(nil), s.ts...)
	vs = append([]float64(nil), s.vs...)
	return ts, vs
}
