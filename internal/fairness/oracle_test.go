package fairness

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// QuadraticUnfairness is the reference for MaxUnfairness: the exhaustive
// sweep MaxUnfairness replaced. Within each jointly backlogged interval it
// tries every candidate t1 (the interval start and each service start)
// and, for each, every t2 (each service end), summing the normalized
// service afresh: O(n²) per interval, but a direct reading of §1.2 that
// assumes nothing about the order of the records.
func QuadraticUnfairness(recs []sim.ServiceRecord, fIv, mIv []sim.Interval, f, m int, rf, rm float64) float64 {
	worst := 0.0
	for _, iv := range Intersect(fIv, mIv) {
		worst = math.Max(worst, quadraticOverInterval(recs, iv, f, m, rf, rm))
	}
	return worst
}

// rec is a normalized service completion: +bytes/rf for flow f, −bytes/rm
// for flow m.
type rec struct {
	start, end float64
	delta      float64
}

func quadraticOverInterval(recs []sim.ServiceRecord, iv sim.Interval, f, m int, rf, rm float64) float64 {
	// Packets of f or m fully served within the joint interval.
	var rs []rec
	for _, r := range recs {
		if r.Start < iv.Start || r.End > iv.End {
			continue
		}
		switch r.Flow {
		case f:
			rs = append(rs, rec{r.Start, r.End, r.Bytes / rf})
		case m:
			rs = append(rs, rec{r.Start, r.End, -r.Bytes / rm})
		}
	}
	if len(rs) == 0 {
		return 0
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].end < rs[j].end })

	t1s := make([]float64, 0, len(rs)+1)
	t1s = append(t1s, iv.Start)
	for _, r := range rs {
		t1s = append(t1s, r.start)
	}
	sort.Float64s(t1s)

	worst := 0.0
	for i, t1 := range t1s {
		if i > 0 && t1 == t1s[i-1] {
			continue
		}
		sum := 0.0
		for _, r := range rs {
			if r.start >= t1 {
				sum += r.delta
				if a := math.Abs(sum); a > worst {
					worst = a
				}
			}
		}
	}
	return worst
}

// recordSet is one link's records of flows 1, 2 and a bystander 3, with
// the backlogged intervals of flows 1 and 2 and their weights.
type recordSet struct {
	recs   []sim.ServiceRecord
	iv1    []sim.Interval
	iv2    []sim.Interval
	r1, r2 float64
}

// randomRecords draws a record set whose jointly backlogged intervals are
// several, and open and close both at record boundaries and in the middle
// of a transmission. The link serves one packet at a time: each service
// starts when, or after, the previous one ends. With pow2, every length,
// gap and weight is a power of two, so every sum either algorithm forms is
// exact.
func randomRecords(rng *rand.Rand, pow2 bool) recordSet {
	num := func(lo, hi float64) float64 {
		if pow2 {
			return math.Ldexp(1, int(math.Round(math.Log2(lo)+rng.Float64()*math.Log2(hi/lo))))
		}
		return lo + rng.Float64()*(hi-lo)
	}
	set := recordSet{r1: num(0.25, 8), r2: num(0.25, 8)}
	now := 0.0
	n := 1 + rng.Intn(300)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			now += num(0.5, 4) // idle
		}
		bytes := num(1, 1024)
		end := now + bytes/256
		set.recs = append(set.recs, sim.ServiceRecord{Flow: 1 + rng.Intn(3), Start: now, End: end, Bytes: bytes})
		now = end
	}
	set.iv1 = randomIntervals(rng, set.recs)
	set.iv2 = randomIntervals(rng, set.recs)
	return set
}

// randomIntervals draws sorted, disjoint intervals over recs' time span,
// each endpoint a record's start or end or a point inside a transmission.
func randomIntervals(rng *rand.Rand, recs []sim.ServiceRecord) []sim.Interval {
	point := func() float64 {
		r := recs[rng.Intn(len(recs))]
		switch rng.Intn(3) {
		case 0:
			return r.Start
		case 1:
			return r.End
		}
		return (r.Start + r.End) / 2
	}
	pts := make([]float64, 2*(1+rng.Intn(6)))
	for i := range pts {
		pts[i] = point()
	}
	return pairUp(pts)
}

// pairUp sorts pts and pairs them off into sorted, disjoint intervals,
// skipping an empty pair and one that touches the interval before it.
func pairUp(pts []float64) []sim.Interval {
	sort.Float64s(pts)
	var out []sim.Interval
	for i := 0; i+1 < len(pts); i += 2 {
		if pts[i] < pts[i+1] && (len(out) == 0 || out[len(out)-1].End < pts[i]) {
			out = append(out, sim.Interval{Start: pts[i], End: pts[i+1]})
		}
	}
	return out
}

// checkAgainstOracle compares MaxUnfairness with the quadratic reference
// for both orders of the pair: bit for bit when exact, else within 1e-12
// relative.
func checkAgainstOracle(set recordSet, exact bool) error {
	f, m, fIv, mIv, rf, rm := 1, 2, set.iv1, set.iv2, set.r1, set.r2
	for range 2 {
		got := MaxUnfairness(set.recs, fIv, mIv, f, m, rf, rm)
		want := QuadraticUnfairness(set.recs, fIv, mIv, f, m, rf, rm)
		if exact && math.Float64bits(got) != math.Float64bits(want) ||
			!exact && math.Abs(got-want) > 1e-12*math.Max(got, want) {
			return fmt.Errorf("H(%d,%d) = %v, quadratic reference %v (%d records, intervals %v and %v)",
				f, m, got, want, len(set.recs), fIv, mIv)
		}
		f, m, fIv, mIv, rf, rm = m, f, mIv, fIv, rm, rf
	}
	return nil
}

// TestMaxUnfairnessMatchesQuadratic holds the one-pass H to the quadratic
// sweep on random record sets with several joint intervals.
func TestMaxUnfairnessMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	joint := 0
	for i := 0; i < 2000; i++ {
		pow2 := i%2 == 0
		set := randomRecords(rng, pow2)
		joint = max(joint, len(Intersect(set.iv1, set.iv2)))
		if err := checkAgainstOracle(set, pow2); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if joint < 3 {
		t.Fatalf("at most %d joint intervals in a set: the merge is not exercised", joint)
	}
}

// FuzzMaxUnfairness: from any byte string, a record set one link could
// produce gets the same H from the one-pass measure as from the quadratic
// sweep. Each record takes two bytes (flow and length, and a gap before
// it); lengths and weights are powers of two, so the two must agree to
// the bit. The last bytes place the backlogged intervals.
func FuzzMaxUnfairness(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 0, 3, 0, 3, 0, 3, 1, 3, 0, 17, 5, 2, 9})
	f.Add([]byte{2, 7, 9, 1, 4, 0, 8, 2, 66, 5, 1, 1, 0, 3, 200, 7, 12, 31, 40})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		set := recordSet{r1: math.Ldexp(1, int(data[0]%7)-3), r2: math.Ldexp(1, int(data[1]%7)-3)}
		data = data[2:]
		nrec := len(data) / 2
		if nrec > 2 {
			nrec -= nrec / 4 // leave bytes for the intervals
		}
		now := 0.0
		for _, b := range data[:nrec] {
			if b&0x80 != 0 {
				now += 1
			}
			bytes := math.Ldexp(1, int(b>>2)%11)
			set.recs = append(set.recs, sim.ServiceRecord{Flow: 1 + int(b&3)%3, Start: now, End: now + bytes/4, Bytes: bytes})
			now += bytes / 4
		}
		// Each remaining byte cuts the run at a record boundary or inside
		// a transmission; the cuts alternate between the two flows.
		var cuts [2][]float64
		for i, b := range data[nrec:] {
			r := set.recs[int(b)%len(set.recs)]
			x := []float64{r.Start, r.End, (r.Start + r.End) / 2}[int(b>>6)%3]
			cuts[i%2] = append(cuts[i%2], x)
		}
		set.iv1, set.iv2 = pairUp(cuts[0]), pairUp(cuts[1])
		if err := checkAgainstOracle(set, true); err != nil {
			t.Fatal(err)
		}
	})
}
