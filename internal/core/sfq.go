// Package core implements the paper's contribution: the Start-time Fair
// Queuing (SFQ) scheduler of Section 2 — including the generalized
// per-packet rate allocation of Section 2.3 (eq 36) — and the hierarchical
// SFQ scheduler of Section 3.
//
// SFQ in one paragraph: every packet gets a start tag and a finish tag
//
//	S(p_f^j) = max{ v(A(p_f^j)), F(p_f^{j-1}) }          (eq 4)
//	F(p_f^j) = S(p_f^j) + l_f^j / r_f^j                  (eqs 5, 36)
//
// where v(t), the system virtual time, is the start tag of the packet in
// service at time t (and, at the end of a busy period, the maximum finish
// tag assigned to any serviced packet). Packets are transmitted in
// increasing order of start tags. Because v(t) is read off the packet in
// service rather than simulated from an assumed link capacity, SFQ remains
// fair no matter how the actual service rate fluctuates (Theorem 1 makes no
// assumption about the server), which is the property WFQ lacks (Example 2)
// and the property hierarchical link sharing requires (Example 3).
package core

import (
	"math"

	"repro/internal/sched"
)

// TieBreak selects the order of packets whose start tags are equal. The
// definition lives in internal/sched (it is part of the shared scheduler
// Config); the alias keeps core.TieFIFO / core.TieLowWeightFirst working.
type TieBreak = sched.TieBreak

// Tie-breaking rules (Section 2.3: "ties are broken arbitrarily; some tie
// breaking rules may be more desirable than others").
const (
	// TieFIFO breaks ties in arrival order (the default).
	TieFIFO = sched.TieFIFO
	// TieLowWeightFirst prefers the packet whose effective rate is
	// smaller, giving interactive low-throughput flows lower average
	// delay as suggested in Section 2.3.
	TieLowWeightFirst = sched.TieLowWeightFirst
)

// SFQ is a Start-time Fair Queuing scheduler. It implements
// sched.Interface. The zero value is not usable; call New.
//
// Each flow has one record (sched.Flow: weight, FIFO, finish-tag chain)
// that Enqueue reaches with one lookup and Dequeue gets back from the heap
// of backlogged flows (sched.FlowHeap), so both cost O(log B) in backlogged
// flows — the complexity Section 2 claims — while serving exactly the
// order a packet-level heap would: start tags are nondecreasing within a
// flow (eq 4: S(p_f^{j+1}) ≥ F(p_f^j) > S(p_f^j)), so the earliest start
// tag is always at some flow's head.
type SFQ struct {
	flows sched.FlowSet // LastFinish in the record is F(p_f^{j-1}), by arrival order

	v         float64 // system virtual time
	maxFinish float64 // max finish tag assigned to a serviced packet
	busy      bool    // a packet is in service
	last      float64 // last time observed (monotonicity check)
	tie       TieBreak
	served    int64 // packets handed out, for observability
}

// New returns an empty SFQ scheduler with FIFO tie-breaking.
func New() *SFQ { return NewTie(TieFIFO) }

// NewTie returns an empty SFQ scheduler with the given tie-breaking rule.
func NewTie(tie TieBreak) *SFQ {
	return &SFQ{tie: tie}
}

// AddFlow registers flow with the given weight (bytes/second).
func (s *SFQ) AddFlow(flow int, weight float64) error { return s.flows.Add(flow, weight) }

// RemoveFlow unregisters an idle flow. Its tag history is discarded, so a
// re-added flow starts a fresh chain (F(p_f^0) = 0).
func (s *SFQ) RemoveFlow(flow int) error { return s.flows.Remove(flow) }

// V returns the current system virtual time.
func (s *SFQ) V() float64 { return s.v }

// Enqueue stamps p with its start and finish tags (eqs 4–5) and queues it.
func (s *SFQ) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return sched.ErrTimeWentBack
	}
	s.last = now
	f, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	r := sched.EffRate(p, f.Weight)
	start := math.Max(s.v, f.LastFinish)
	finish := start + p.Length/r
	p.VirtualStart = start
	p.VirtualFinish = finish
	f.LastFinish, f.Tagged = finish, true

	sub := 0.0
	if s.tie == TieLowWeightFirst {
		sub = r
	}
	s.flows.PushFlow(f, start, sub, p)
	return nil
}

// Dequeue returns the packet with the minimum start tag and advances the
// system virtual time to that tag. When the queue is empty the busy period
// ends and v is set to the maximum finish tag among serviced packets
// (step 2 of the algorithm).
func (s *SFQ) Dequeue(now float64) (*Packet, bool) {
	if now > s.last {
		s.last = now
	}
	if s.flows.Len() == 0 {
		if s.busy {
			s.busy = false
			s.v = s.maxFinish
		}
		s.flows.FinalizeDrains()
		return nil, false
	}
	p := s.flows.PopMin()
	s.busy = true
	s.v = p.VirtualStart
	if p.VirtualFinish > s.maxFinish {
		s.maxFinish = p.VirtualFinish
	}
	s.served++
	s.flows.FinalizeDrains()
	return p, true
}

// Len returns the number of queued packets.
func (s *SFQ) Len() int { return s.flows.Len() }

// QueuedBytes returns the bytes queued for flow.
func (s *SFQ) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }

// Served returns the number of packets dequeued so far.
func (s *SFQ) Served() int64 { return s.served }

// Packet is re-exported so that callers of the core package need not import
// internal/sched for the common case.
type Packet = sched.Packet
