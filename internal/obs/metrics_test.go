package obs

import (
	"math"
	"testing"
)

func TestHistogram(t *testing.T) {
	var h Histogram
	vs := []float64{5e-7, 1.5e-6, 3e-6, 1e-3}
	for _, v := range vs {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 4 || s.Min != 5e-7 || s.Max != 1e-3 {
		t.Fatalf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	if got, want := s.Sum/float64(s.Count), (5e-7+1.5e-6+3e-6+1e-3)/4; math.Abs(got-want) > 1e-15 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// One value per bucket; the first lands below HistMinDelay.
	if len(s.Buckets) != len(vs) || s.Buckets[0].Hi != HistMinDelay {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range s.Buckets {
		if b.N != 1 || vs[i] < b.Lo || vs[i] >= b.Hi {
			t.Errorf("bucket %+v does not hold %v alone", b, vs[i])
		}
	}
	// Bucket bounds tile [0, ∞) without gaps.
	prevHi := 0.0
	for i := 0; i < HistBuckets; i++ {
		lo, hi := HistBucketBounds(i)
		if lo != prevHi || hi <= lo {
			t.Errorf("bucket %d = [%v, %v) after hi %v", i, lo, hi, prevHi)
		}
		prevHi = hi
	}
}
