package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 || w.Mean() != 5 {
		t.Errorf("n=%d mean=%v", w.N(), w.Mean())
	}
	if math.Abs(w.Std()-2.138089935299395) > 1e-12 {
		t.Errorf("std = %v", w.Std())
	}
	if w.Min() != 2 {
		t.Errorf("min = %v", w.Min())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Var() != 0 || w.Min() != 42 {
		t.Error("single-sample stats wrong")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			w.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.N() != 100 || s.Mean() != 50.5 {
		t.Errorf("n=%d mean=%v", s.N(), s.Mean())
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 = %v", got)
	}
	if s.Max() != 100 {
		t.Errorf("max = %v", s.Max())
	}
	var empty Sample
	if empty.Percentile(50) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(1, 10)
	ts.Add(2, 30)
	ts.Add(2, 35) // same-time update
	ts.Add(4, 70)
	if got := ts.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v, want 0", got)
	}
	if got := ts.At(2); got != 35 {
		t.Errorf("At(2) = %v, want 35 (last same-time point)", got)
	}
	if got := ts.At(3); got != 35 {
		t.Errorf("At(3) = %v", got)
	}
	if got := ts.Delta(1, 4); got != 60 {
		t.Errorf("Delta = %v, want 60", got)
	}
	if got := ts.At(9); got != 70 {
		t.Errorf("At(9) = %v, want 70 (last point)", got)
	}
	lt, lv := ts.Last()
	if lt != 4 || lv != 70 {
		t.Errorf("Last = (%v,%v)", lt, lv)
	}
	xs, vs := ts.Points()
	if len(xs) != 4 || len(vs) != 4 {
		t.Error("Points length")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add should panic")
		}
	}()
	ts.Add(3, 80)
}

func TestTimeSeriesEmpty(t *testing.T) {
	var ts TimeSeries
	if ts.At(5) != 0 {
		t.Error("empty At should be 0")
	}
	if ts.Delta(0, 5) != 0 {
		t.Error("empty Delta should be 0")
	}
	lt, lv := ts.Last()
	if lt != 0 || lv != 0 {
		t.Error("empty Last should be zeros")
	}
}
