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
//
// A flow's packets queue in its record's FIFO (Flow.FlowQ, over DRR's own
// ChunkPool). The round-robin list is a ring of the backlogged flows: a flow
// is in it exactly when it holds packets, and an unlisted flow's deficit is
// always zero, so the ring slot is the only per-flow state beside the record.
type DRR struct {
	flows   FlowTable
	pool    ChunkPool
	quantum float64 // bytes of credit per unit weight per round

	active drrRing // the round-robin list, in service order
	total  int
	last   float64
}

// drrSlot is one backlogged flow's place in the round.
type drrSlot struct {
	f       *Flow
	deficit float64
	fresh   bool // true when the flow should receive a quantum at its next turn
}

// drrRing is the round-robin list: a FIFO of slots in a power-of-two ring,
// so rotating a flow to the back of the round moves one slot and allocates
// nothing once the ring has grown to the number of backlogged flows.
type drrRing struct {
	slots []drrSlot
	head  int
	n     int
}

func (r *drrRing) push(s drrSlot) {
	if r.n == len(r.slots) {
		slots := make([]drrSlot, max(8, 2*len(r.slots)))
		r.each(func(i int, old *drrSlot) { slots[i] = *old })
		r.slots, r.head = slots, 0
	}
	r.slots[(r.head+r.n)&(len(r.slots)-1)] = s
	r.n++
}

func (r *drrRing) front() *drrSlot { return &r.slots[r.head] }

func (r *drrRing) pop() {
	r.slots[r.head] = drrSlot{}
	r.head = (r.head + 1) & (len(r.slots) - 1)
	r.n--
}

// each visits the slots in service order.
func (r *drrRing) each(fn func(i int, s *drrSlot)) {
	for i := 0; i < r.n; i++ {
		fn(i, &r.slots[(r.head+i)&(len(r.slots)-1)])
	}
}

// NewDRR returns a DRR scheduler. quantumPerUnitWeight is the number of
// bytes of credit a flow of weight 1 receives per round; a flow of weight w
// receives w × quantumPerUnitWeight. For O(1) behaviour choose it so every
// flow's quantum is at least its maximum packet size.
//
// Deprecated: prefer New("drr", WithQuantum(q)); this wrapper remains so
// existing call sites keep compiling (and it panics on a quantum that is
// not finite and positive, where the registry factory returns ErrBadConfig).
func NewDRR(quantumPerUnitWeight float64) *DRR {
	if !positive(quantumPerUnitWeight) {
		panic("sched: DRR quantum must be finite and positive")
	}
	return &DRR{quantum: quantumPerUnitWeight}
}

// AddFlow registers flow with the given weight.
func (s *DRR) AddFlow(flow int, weight float64) error { return s.flows.Add(flow, weight) }

// RemoveFlow unregisters an idle flow.
func (s *DRR) RemoveFlow(flow int) error { return s.flows.Remove(flow) }

// Enqueue appends p to its flow queue, activating the flow if needed.
func (s *DRR) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	f, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	if f.n == 0 {
		s.active.push(drrSlot{f: f, fresh: true})
	}
	f.Push(&s.pool, 0, 0, 0, p)
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
		a := s.active.front()
		if a.fresh {
			a.deficit += a.f.Weight * s.quantum
			a.fresh = false
		}
		if head := a.f.headItem().p; head.Length <= a.deficit {
			a.deficit -= head.Length
			a.f.Pop(&s.pool)
			if a.f.n == 0 {
				s.active.pop()
			}
			s.total--
			return head, true
		}
		// Not enough credit: rotate to the back of the round; the flow
		// receives a fresh quantum when it returns to the front.
		a.fresh = true
		rotated := *a
		s.active.pop()
		s.active.push(rotated)
	}
}

// Len returns the number of queued packets.
func (s *DRR) Len() int { return s.total }

// QueuedBytes returns the bytes queued for flow.
func (s *DRR) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
