// Package conformance is the verification safety net for every scheduler
// in this repository. It provides three layers:
//
//  1. Brute-force reference schedulers (oracle.go, gps.go): an O(n)-scan
//     SFQ that computes eqs (4)–(5)/(36) directly with no heap, and a
//     dense fluid GPS oracle. Production schedulers are differentially
//     tested against them packet-for-packet.
//  2. Replay invariant checkers (invariants.go): given the trace and the
//     service records of a run, they assert the paper's inequalities —
//     the Theorem 1 fairness bound over every busy-interval pair,
//     the Theorem 2 throughput and Theorem 4 (and eq 56) delay bounds,
//     virtual-time monotonicity, work conservation, packet conservation,
//     and per-flow FIFO ordering.
//  3. A randomized workload generator (workload.go) that drives the
//     checkers from seeded property tests and fuzz targets.
//
// The oracles deliberately share no data structures with internal/core or
// internal/sched beyond the sched.Packet type: a bug in the production
// heap or tag bookkeeping cannot cancel out of the comparison.
package conformance

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// RefSFQ is the brute-force reference implementation of Start-time Fair
// Queuing: tags follow eqs (4)–(5) with the generalized per-packet rates
// of eq (36), packets are kept in one arrival-ordered slice, and Dequeue
// linearly scans for the minimum start tag (FIFO among ties). It mirrors
// the semantics of core.New() (SFQ with TieFIFO) — including the busy-period rule
// that v jumps to the maximum finish tag when Dequeue observes an empty
// queue — but shares none of its machinery.
type RefSFQ struct {
	weights    map[int]float64
	lastFinish map[int]float64
	queue      []*sched.Packet // arrival order; nil-free
	v          float64
	maxFinish  float64
	busy       bool
	last       float64
}

// NewRefSFQ returns an empty reference SFQ scheduler.
func NewRefSFQ() *RefSFQ {
	return &RefSFQ{
		weights:    make(map[int]float64),
		lastFinish: make(map[int]float64),
	}
}

// AddFlow registers flow with the given weight (bytes/second).
func (s *RefSFQ) AddFlow(flow int, weight float64) error {
	if !(weight > 0 && weight <= math.MaxFloat64) { // finite and positive, as the SUT
		return fmt.Errorf("%w: flow %d weight %v", sched.ErrBadWeight, flow, weight)
	}
	s.weights[flow] = weight
	return nil
}

// RemoveFlow unregisters an idle flow, discarding its tag history.
func (s *RefSFQ) RemoveFlow(flow int) error {
	if _, ok := s.weights[flow]; !ok {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	for _, p := range s.queue {
		if p.Flow == flow {
			return fmt.Errorf("%w: %d", sched.ErrFlowBusy, flow)
		}
	}
	delete(s.weights, flow)
	delete(s.lastFinish, flow)
	return nil
}

// V returns the current system virtual time.
func (s *RefSFQ) V() float64 { return s.v }

// Enqueue stamps p per eqs (4)–(5)/(36) and appends it.
func (s *RefSFQ) Enqueue(now float64, p *sched.Packet) error {
	if now < s.last {
		return sched.ErrTimeWentBack
	}
	s.last = now
	w, ok := s.weights[p.Flow]
	if !ok {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, p.Flow)
	}
	if !(p.Length > 0 && p.Length <= math.MaxFloat64) {
		return fmt.Errorf("%w: flow %d length %v", sched.ErrBadPacket, p.Flow, p.Length)
	}
	r := w
	if p.Rate > 0 {
		r = p.Rate
	}
	start := math.Max(s.v, s.lastFinish[p.Flow])
	p.VirtualStart = start
	p.VirtualFinish = start + p.Length/r
	s.lastFinish[p.Flow] = p.VirtualFinish
	s.queue = append(s.queue, p)
	return nil
}

// Dequeue scans the whole queue for the minimum start tag (earliest
// arrival among ties) and advances v to that tag. On an empty queue it
// applies the end-of-busy-period rule.
func (s *RefSFQ) Dequeue(now float64) (*sched.Packet, bool) {
	if now > s.last {
		s.last = now
	}
	if len(s.queue) == 0 {
		if s.busy {
			s.busy = false
			s.v = s.maxFinish
		}
		return nil, false
	}
	best := 0
	for i := 1; i < len(s.queue); i++ {
		if s.queue[i].VirtualStart < s.queue[best].VirtualStart {
			best = i
		}
	}
	p := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	s.busy = true
	s.v = p.VirtualStart
	if p.VirtualFinish > s.maxFinish {
		s.maxFinish = p.VirtualFinish
	}
	return p, true
}

// Len returns the number of queued packets.
func (s *RefSFQ) Len() int { return len(s.queue) }

// QueuedBytes returns the total bytes queued for flow.
func (s *RefSFQ) QueuedBytes(flow int) float64 {
	sum := 0.0
	for _, p := range s.queue {
		if p.Flow == flow {
			sum += p.Length
		}
	}
	return sum
}
