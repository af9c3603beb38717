package sched

import "math"

// VirtualClock implements Zhang's Virtual Clock discipline [22]: each
// packet is stamped EAT(p_f^j, r_f) + l_f^j / r_f, where the expected
// arrival time follows eq (37), and packets are transmitted in increasing
// stamp order. Virtual Clock provides the same delay guarantee as WFQ but
// is *unfair*: a flow that used idle bandwidth builds up future stamps and
// is punished when other flows return — the behaviour Section 1.1 argues
// disqualifies it for VBR video. It is also the GSQ scheduler inside Fair
// Airport (Appendix B).
type VirtualClock struct {
	// One record per flow; its EAT is EAT(p_f^{j-1}) + l^{j-1}/r^{j-1}, the
	// earliest expected arrival of the flow's next packet.
	flows FlowSet
	last  float64
}

// NewVirtualClock returns an empty Virtual Clock scheduler.
//
// Deprecated: prefer New("vclock").
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{}
}

// AddFlow registers flow with the given reserved rate (bytes/second).
func (s *VirtualClock) AddFlow(flow int, weight float64) error { return s.flows.Add(flow, weight) }

// RemoveFlow unregisters an idle flow.
func (s *VirtualClock) RemoveFlow(flow int) error { return s.flows.Remove(flow) }

// Enqueue stamps p with EAT + l/r and queues it.
func (s *VirtualClock) Enqueue(now float64, p *Packet) error {
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
	stamp := eat + p.Length/r
	p.VirtualStart = eat
	p.VirtualFinish = stamp
	f.EAT, f.Tagged = stamp, true
	s.flows.PushFlow(f, stamp, 0, p)
	return nil
}

// Dequeue returns the packet with the minimum stamp.
func (s *VirtualClock) Dequeue(now float64) (*Packet, bool) {
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
func (s *VirtualClock) Len() int { return s.flows.Len() }

// QueuedBytes returns the bytes queued for flow.
func (s *VirtualClock) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
