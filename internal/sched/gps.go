package sched

import "math"

// gps simulates the fluid bit-by-bit weighted round robin reference system
// that defines WFQ's virtual time v(t) (eq 3): dv/dt = C / Σ_{j∈B(t)} r_j,
// where B(t) is the set of flows backlogged *in the fluid system* and C is
// the assumed server capacity. The simulation is event-driven: v advances
// piecewise-linearly between fluid departures, and a flow leaves B(t) when
// v passes the finish tag of its last fluid packet.
//
// This is the deliberately expensive-but-faithful construction; it is also
// what makes WFQ unfair on variable-rate links (Example 2): the fluid
// system runs at the assumed C while the real link may not.
type gps struct {
	c     float64 // assumed capacity, bytes/s; 0 when integrate follows C(t)
	v     float64
	lastT float64
	sumW  float64

	count   map[int]int // fluid packets outstanding per flow
	weights map[int]float64
	h       gpsHeap
	seq     uint64
}

type gpsEntry struct {
	finish float64
	seq    uint64
	flow   int
}

// gpsHeap is a typed min-heap of fluid departures ordered by (finish, seq).
// Hand-rolled like TagHeap: container/heap would box every gpsEntry on push
// and pop, and the fluid simulation processes one entry per packet.
type gpsHeap []gpsEntry

func (a gpsEntry) less(b gpsEntry) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.seq < b.seq
}

func (h gpsHeap) Len() int { return len(h) }

func (h *gpsHeap) push(e gpsEntry) {
	*h = append(*h, e)
	hs := *h
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(hs[parent]) {
			break
		}
		hs[i] = hs[parent]
		i = parent
	}
	hs[i] = e
}

func (h *gpsHeap) pop() gpsEntry {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	e := hs[n]
	*h = hs[:n]
	hs = hs[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && hs[r].less(hs[l]) {
			min = r
		}
		if !hs[min].less(e) {
			break
		}
		hs[i] = hs[min]
		i = min
	}
	if n > 0 {
		hs[i] = e
	}
	return top
}

func newGPS(c float64, weights map[int]float64) *gps {
	return &gps{c: c, count: make(map[int]int), weights: weights}
}

// advance moves the fluid system forward to real time `now`, processing
// fluid departures along the way.
func (g *gps) advance(now float64) {
	for {
		if g.h.Len() == 0 {
			g.lastT = now
			return
		}
		fmin := g.h[0].finish
		// Real time needed to advance v from g.v to fmin.
		dt := (fmin - g.v) * g.sumW / g.c
		if dt < 0 {
			dt = 0
		}
		if g.lastT+dt <= now {
			g.lastT += dt
			g.v = fmin
			g.depart()
		} else {
			g.v += (now - g.lastT) * g.c / g.sumW
			g.lastT = now
			return
		}
	}
}

// integrate is advance for a fluid system whose capacity is the function
// rateAt(t) rather than the constant c (the WFQ oracle, c = 0): it
// integrates dv = C(t)/ΣW dt in fixed steps of at most step seconds,
// stopping exactly at each fluid departure so B(t) stays exact.
func (g *gps) integrate(now float64, rateAt func(float64) float64, step float64) {
	for g.lastT < now {
		if g.h.Len() == 0 {
			g.lastT = now
			return
		}
		h := math.Min(step, now-g.lastT)
		dv := h * rateAt(g.lastT) / g.sumW
		if fmin := g.h[0].finish; g.v+dv >= fmin {
			// Advance exactly to the departure; consume the matching share
			// of real time (guarding against a zero rate).
			rate := rateAt(g.lastT)
			if rate > 0 {
				dt := (fmin - g.v) * g.sumW / rate
				if dt > h {
					dt = h
				}
				g.lastT += dt
			} else {
				g.lastT += h
			}
			g.v = fmin
			g.depart()
			continue
		}
		g.v += dv
		g.lastT += h
	}
}

// depart removes the earliest fluid departure; its flow leaves B(t) with
// its last fluid packet.
func (g *gps) depart() {
	e := g.h.pop()
	g.count[e.flow]--
	if g.count[e.flow] == 0 {
		g.sumW -= g.weights[e.flow]
		if g.sumW < 1e-12 {
			g.sumW = 0
		}
	}
}

// arrive registers a fluid packet with the given finish tag.
func (g *gps) arrive(flow int, finish float64) {
	if g.count[flow] == 0 {
		g.sumW += g.weights[flow]
	}
	g.count[flow]++
	g.seq++
	g.h.push(gpsEntry{finish: finish, seq: g.seq, flow: flow})
}
