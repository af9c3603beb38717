// Package fairness measures the empirical fairness of a scheduler run:
// the paper's fairness measure H(f,m) is the supremum of
// |W_f(t1,t2)/r_f − W_m(t1,t2)/r_m| over every interval [t1,t2] in which
// both flows are backlogged, where a packet counts toward W only if its
// service starts and finishes inside the interval (§1.2).
//
// The computation is exact and linear. A link serves one packet at a time,
// so its completion order is also its start order: the packets served
// inside [t1,t2] are a run of consecutive records. With P the running
// normalized service difference since a jointly backlogged interval opened
// (+bytes/r_f for f, −bytes/r_m for m, starting at 0), W_f/r_f − W_m/r_m
// over a run is P_j − P_{i−1}, so H over that interval is max P − min P.
// One pass over the records of a sim.Monitor, merged with the sorted joint
// intervals, finds it.
package fairness

import (
	"math"

	"repro/internal/sim"
)

// Intersect returns the pairwise intersection of two sorted interval sets.
func Intersect(a, b []sim.Interval) []sim.Interval {
	var out []sim.Interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := math.Max(a[i].Start, b[j].Start)
		hi := math.Min(a[i].End, b[j].End)
		if lo < hi {
			out = append(out, sim.Interval{Start: lo, End: hi})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// MaxUnfairness returns the empirical H(f,m): the maximum of
// |W_f(t1,t2)/r_f − W_m(t1,t2)/r_m| over sub-intervals of the jointly
// backlogged intervals. recs must be one link's records in completion
// order, each service starting no earlier than the previous one ended (as
// a sim.Monitor records them); rf and rm are the flow weights.
func MaxUnfairness(recs []sim.ServiceRecord, fIv, mIv []sim.Interval, f, m int, rf, rm float64) float64 {
	joint := Intersect(fIv, mIv)
	worst := 0.0
	k := 0
	var p, lo, hi float64 // P since joint[k] opened, and its min and max
	for _, r := range recs {
		if r.Flow != f && r.Flow != m {
			continue
		}
		for k < len(joint) && r.End > joint[k].End {
			k++
			p, lo, hi = 0, 0, 0
		}
		if k == len(joint) {
			break
		}
		if r.Start < joint[k].Start {
			continue // started before the interval opened
		}
		if r.Flow == f {
			p += r.Bytes / rf
		} else {
			p -= r.Bytes / rm
		}
		lo, hi = min(lo, p), max(hi, p)
		worst = max(worst, hi-lo)
	}
	return worst
}

// MonitorUnfairness computes H(f,m) from a monitor and the flow weights.
func MonitorUnfairness(mon *sim.Monitor, f, m int, rf, rm float64) float64 {
	return MaxUnfairness(mon.ServiceRecords(), mon.BackloggedIntervals(f), mon.BackloggedIntervals(m), f, m, rf, rm)
}

// NormalizedThroughput returns W_f(t1,t2)/r_f computed from service
// records (packets fully served within [t1,t2]).
func NormalizedThroughput(recs []sim.ServiceRecord, flow int, rf, t1, t2 float64) float64 {
	sum := 0.0
	for _, r := range recs {
		if r.Flow == flow && r.Start >= t1 && r.End <= t2 {
			sum += r.Bytes
		}
	}
	return sum / rf
}
