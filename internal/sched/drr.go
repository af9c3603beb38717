package sched

// DRR is Deficit Round Robin [19]: a weighted round robin derivative that
// handles variable-length packets with O(1) amortized work per packet. Each
// flow receives quantum = weight × QuantumPerUnitWeight bytes of sending
// credit per round; the deficit carries under-used credit to the next
// round.
//
// Table 1's critique: DRR's fairness measure H(f,m) = 1 + l_f/r_f + l_m/r_m
// (for min weight 1) can be made arbitrarily worse than SFQ/SCFQ by weight
// scaling, and its delay bound depends on the weights of all other flows.
type DRR struct {
	flows   FlowTable
	quantum float64 // bytes of credit per unit weight per round

	state  map[int]*drrFlow
	active []int // round-robin list of backlogged flows (ids)
	total  int
	last   float64
}

type drrFlow struct {
	q       []*Packet
	head    int
	deficit float64
	fresh   bool // true when the flow should receive a quantum at its next turn
	inList  bool
}

// NewDRR returns a DRR scheduler. quantumPerUnitWeight is the number of
// bytes of credit a flow of weight 1 receives per round; a flow of weight w
// receives w × quantumPerUnitWeight. For O(1) behaviour choose it so every
// flow's quantum is at least its maximum packet size.
//
// Deprecated: prefer New("drr", WithQuantum(q)); this wrapper remains so
// existing call sites keep compiling (and it panics on a non-positive
// quantum, where the registry factory returns ErrBadConfig).
func NewDRR(quantumPerUnitWeight float64) *DRR {
	if quantumPerUnitWeight <= 0 {
		panic("sched: DRR quantum must be positive")
	}
	return &DRR{
		quantum: quantumPerUnitWeight,
		state:   make(map[int]*drrFlow),
	}
}

// AddFlow registers flow with the given weight.
func (s *DRR) AddFlow(flow int, weight float64) error {
	if err := s.flows.Add(flow, weight); err != nil {
		return err
	}
	if _, ok := s.state[flow]; !ok {
		s.state[flow] = &drrFlow{}
	}
	return nil
}

// RemoveFlow unregisters an idle flow.
func (s *DRR) RemoveFlow(flow int) error {
	if err := s.flows.Remove(flow); err != nil {
		return err
	}
	delete(s.state, flow)
	return nil
}

// Enqueue appends p to its flow queue, activating the flow if needed.
func (s *DRR) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	rec, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	f := s.state[p.Flow]
	f.q = append(f.q, p)
	if !f.inList {
		f.inList = true
		f.fresh = true
		f.deficit = 0
		s.active = append(s.active, p.Flow)
	}
	rec.Account(p)
	s.total++
	return nil
}

// Dequeue returns the next packet under the deficit round robin discipline.
func (s *DRR) Dequeue(now float64) (*Packet, bool) {
	if now > s.last {
		s.last = now
	}
	if s.total == 0 {
		return nil, false
	}
	for {
		id := s.active[0]
		f := s.state[id]
		if f.fresh {
			f.deficit += s.flows.Weights[id] * s.quantum
			f.fresh = false
		}
		head := f.q[f.head]
		if head.Length <= f.deficit {
			f.q[f.head] = nil
			f.head++
			f.deficit -= head.Length
			if f.head == len(f.q) {
				f.q = f.q[:0]
				f.head = 0
				f.deficit = 0
				f.inList = false
				s.active = s.active[1:]
			}
			s.flows.OnDequeue(head)
			s.total--
			return head, true
		}
		// Not enough credit: rotate to the back of the round; the flow
		// receives a fresh quantum when it returns to the front.
		f.fresh = true
		s.active = append(s.active[1:], id)
	}
}

// Len returns the number of queued packets.
func (s *DRR) Len() int { return s.total }

// QueuedBytes returns the bytes queued for flow.
func (s *DRR) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
