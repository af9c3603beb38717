package main

import (
	"math"
	"math/bits"
	"sort"
)

// summary is a timing (or any repeated measurement) reported the way the
// harness promises: the median, the quartiles around it, and how many
// samples they rest on.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs (which it sorts in a
// copy). Quartiles use the same exclusive method as Python's
// statistics.quantiles(xs, n=4), so a spread computed here matches the one
// the driver computes over runs.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile of sorted s at p with the exclusive (n+1) rule, clamped to the
// sample range.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return summarize(xs).Median }

// hist is a log-linear histogram of non-negative integer values
// (nanoseconds): 16 linear sub-buckets per power of two, so a reported
// percentile is within ~6 % of the true one at any magnitude (usually much
// closer: quantile interpolates by rank inside the bucket). Spans are
// aggregated into one of these per span name instead of being kept.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
	total  uint64
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // v in [2^exp, 2^(exp+1))
	sub := (v >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// histBucketBounds returns the half-open range [lo, hi) of bucket i.
func histBucketBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	l := uint64(1)<<uint(exp) | sub<<(uint(exp)-histSubBits)
	return float64(l), float64(l + uint64(1)<<(uint(exp)-histSubBits))
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(uint64(v))]++
	h.n++
	h.total += uint64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.total += o.total
}

// quantile returns the value below which fraction p of the samples fall,
// interpolating by rank inside the bucket the rank lands in.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := math.Max(1, math.Ceil(p*float64(h.n)))
	var seen float64
	for i, c := range h.counts {
		if c > 0 && seen+float64(c) >= want {
			lo, hi := histBucketBounds(i)
			return lo + (hi-lo)*(want-seen-0.5)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBucketBounds(len(h.counts) - 1)
	return hi
}
