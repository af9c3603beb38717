package sched

// FIFO serves packets in arrival order. It is the degenerate baseline and
// the per-class leaf queue used by the link-sharing trees. Flow weights
// are accepted (and ignored) so FIFO satisfies the same Interface.
type FIFO struct {
	flows FlowTable
	q     []*Packet
	head  int
	last  float64
}

// NewFIFO returns an empty FIFO scheduler.
//
// Deprecated: prefer New("fifo").
func NewFIFO() *FIFO { return &FIFO{} }

// AddFlow registers a flow. The weight is validated but unused.
func (s *FIFO) AddFlow(flow int, weight float64) error { return s.flows.Add(flow, weight) }

// RemoveFlow unregisters an idle flow.
func (s *FIFO) RemoveFlow(flow int) error { return s.flows.Remove(flow) }

// Enqueue appends p.
func (s *FIFO) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	f, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	f.Account(p)
	s.q = append(s.q, p)
	return nil
}

// Dequeue returns the oldest packet.
func (s *FIFO) Dequeue(now float64) (*Packet, bool) {
	if now > s.last {
		s.last = now
	}
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
		return nil, false
	}
	p := s.q[s.head]
	s.q[s.head] = nil
	s.head++
	s.flows.OnDequeue(p)
	return p, true
}

// Len returns the number of queued packets.
func (s *FIFO) Len() int { return len(s.q) - s.head }

// QueuedBytes returns the bytes queued for flow.
func (s *FIFO) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
