package sched

import "math"

// SCFQ is Self-Clocked Fair Queuing [4, 8]: packets are stamped with start
// and finish tags like WFQ, but the system virtual time is approximated by
// the finish tag of the packet in service, and packets are transmitted in
// increasing order of finish tags. This removes the fluid GPS simulation
// (making it as cheap as SFQ) at the cost of the larger delay bound of
// eq (56) — the l_f/r_f term that SFQ's start-tag ordering eliminates.
type SCFQ struct {
	flows     FlowSet // one record per flow: weight, FIFO, finish-tag chain
	v         float64
	maxFinish float64
	busy      bool
	last      float64
}

// NewSCFQ returns an empty SCFQ scheduler.
//
// Deprecated: prefer New("scfq").
func NewSCFQ() *SCFQ {
	return &SCFQ{}
}

// AddFlow registers flow with the given weight (bytes/second).
func (s *SCFQ) AddFlow(flow int, weight float64) error { return s.flows.Add(flow, weight) }

// RemoveFlow unregisters an idle flow.
func (s *SCFQ) RemoveFlow(flow int) error { return s.flows.Remove(flow) }

// V returns the current system virtual time (finish tag of the packet in
// service).
func (s *SCFQ) V() float64 { return s.v }

// Enqueue stamps p and queues it by finish tag.
func (s *SCFQ) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	f, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	r := EffRate(p, f.Weight)
	start := math.Max(s.v, f.LastFinish)
	finish := start + p.Length/r
	p.VirtualStart = start
	p.VirtualFinish = finish
	f.LastFinish, f.Tagged = finish, true
	s.flows.PushFlow(f, finish, 0, p)
	return nil
}

// Dequeue returns the packet with the minimum finish tag and sets the
// system virtual time to that tag.
func (s *SCFQ) Dequeue(now float64) (*Packet, bool) {
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
	s.v = p.VirtualFinish
	if p.VirtualFinish > s.maxFinish {
		s.maxFinish = p.VirtualFinish
	}
	s.flows.FinalizeDrains()
	return p, true
}

// Len returns the number of queued packets.
func (s *SCFQ) Len() int { return s.flows.Len() }

// QueuedBytes returns the bytes queued for flow.
func (s *SCFQ) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
