package sched

import "math"

// EDD implements Delay EDD as defined in Section 3 (eq 66): packet p_f^j is
// assigned deadline D = EAT(p_f^j, r_f) + d_f and packets are transmitted in
// increasing deadline order. Theorem 7 bounds its lateness on an FC server
// by (l_max + δ(C)) / C when the schedulability condition (eq 67) holds.
//
// Delay EDD decouples delay from throughput allocation, which is why the
// hierarchical scheduler of Section 3 delegates classes that need that
// separation to it.
type EDD struct {
	// One record per flow: Deadline is d_f (seconds), EAT is EAT(prev) +
	// l_prev/r_prev.
	flows FlowSet
	last  float64
}

// NewEDD returns an empty Delay EDD scheduler.
//
// Deprecated: prefer New("edd").
func NewEDD() *EDD {
	return &EDD{}
}

// AddFlow registers flow with rate `weight` and a zero delay bound; use
// AddFlowDeadline to set d_f.
func (s *EDD) AddFlow(flow int, weight float64) error { return s.AddFlowDeadline(flow, weight, 0) }

// AddFlowDeadline registers flow with reserved rate (bytes/second) and
// per-packet delay bound d (seconds).
//
// Calling it again re-registers the flow with new parameters; changes
// apply to packets that arrive afterwards. The flow-indexed queue serves
// each flow's packets strictly in arrival order (per-flow deadlines are
// nondecreasing when d_f is stable, since EAT advances by l/r per
// packet), so shrinking d_f while the flow is backlogged does not let the
// new packet overtake the flow's queued ones — its lower deadline takes
// effect against *other* flows once it reaches the head. A reduction deep
// enough to invert the flow's own key order trips the schedassert build's
// monotonicity assertion.
func (s *EDD) AddFlowDeadline(flow int, rate, d float64) error {
	if d < 0 {
		return ErrBadWeight
	}
	if err := s.flows.Add(flow, rate); err != nil {
		return err
	}
	s.flows.Registered(flow).Deadline = d
	return nil
}

// RemoveFlow unregisters an idle flow.
func (s *EDD) RemoveFlow(flow int) error { return s.flows.Remove(flow) }

// Enqueue assigns p its deadline per eq (66) and queues it.
func (s *EDD) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	f, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	r := EffRate(p, f.Weight)
	eat := now
	if f.Tagged {
		eat = math.Max(now, f.EAT)
	}
	f.EAT, f.Tagged = eat+p.Length/r, true
	p.Deadline = eat + f.Deadline
	s.flows.PushFlow(f, p.Deadline, 0, p)
	return nil
}

// Dequeue returns the packet with the earliest deadline.
func (s *EDD) Dequeue(now float64) (*Packet, bool) {
	if now > s.last {
		s.last = now
	}
	if s.flows.Len() == 0 {
		s.flows.FinalizeDrains()
		return nil, false
	}
	p := s.flows.PopMin()
	s.flows.FinalizeDrains()
	return p, true
}

// Len returns the number of queued packets.
func (s *EDD) Len() int { return s.flows.Len() }

// QueuedBytes returns the bytes queued for flow.
func (s *EDD) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
