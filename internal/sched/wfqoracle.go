package sched

import "math"

// WFQOracle is the §1.2 thought experiment made concrete: WFQ whose fluid
// reference system integrates the *actual* time-varying capacity C(t)
// (eq 3 with C replaced by C(t)). Given a perfect rate oracle it restores
// fairness on variable-rate servers — at the cost the paper warns about:
// the fluid clock must numerically integrate C(t) (here with a fixed
// step), and a real scheduler has no such oracle for a flow-controlled or
// CPU-limited link. It exists for the ablation experiment that shows SFQ
// achieves the same fairness with none of this machinery.
type WFQOracle struct {
	flows      FlowTable
	rateAt     func(t float64) float64
	step       float64
	v          float64
	lastT      float64
	sumW       float64
	count      map[int]int
	gh         gpsHeap
	seq        uint64
	heap       TagHeap
	lastFinish map[int]float64
	last       float64
}

// NewWFQOracle returns a WFQ whose fluid system runs at rateAt(t),
// integrated with the given step (seconds).
func NewWFQOracle(rateAt func(t float64) float64, step float64) *WFQOracle {
	if rateAt == nil || step <= 0 {
		panic("sched: WFQOracle needs a rate function and a positive step")
	}
	return &WFQOracle{
		rateAt:     rateAt,
		step:       step,
		count:      make(map[int]int),
		lastFinish: make(map[int]float64),
	}
}

// AddFlow registers flow with the given weight.
func (s *WFQOracle) AddFlow(flow int, weight float64) error { return s.flows.Add(flow, weight) }

// RemoveFlow unregisters an idle flow.
func (s *WFQOracle) RemoveFlow(flow int) error {
	if s.count[flow] > 0 {
		return ErrFlowBusy
	}
	if err := s.flows.Remove(flow); err != nil {
		return err
	}
	delete(s.lastFinish, flow)
	delete(s.count, flow)
	return nil
}

// V returns the fluid virtual time.
func (s *WFQOracle) V() float64 { return s.v }

// advance integrates dv = C(t)/ΣW dt in fixed steps, processing fluid
// departures as v crosses finish tags.
func (s *WFQOracle) advance(now float64) {
	for s.lastT < now {
		if s.gh.Len() == 0 {
			s.lastT = now
			return
		}
		h := math.Min(s.step, now-s.lastT)
		dv := h * s.rateAt(s.lastT) / s.sumW
		// Cap at the next fluid departure to keep B(t) exact.
		if fmin := s.gh[0].finish; s.v+dv >= fmin {
			// Advance exactly to the departure; consume the matching
			// share of real time (guarding against a zero rate).
			rate := s.rateAt(s.lastT)
			if rate > 0 {
				dt := (fmin - s.v) * s.sumW / rate
				if dt > h {
					dt = h
				}
				s.lastT += dt
			} else {
				s.lastT += h
			}
			s.v = fmin
			e := s.gh.pop()
			s.count[e.flow]--
			if s.count[e.flow] == 0 {
				s.sumW -= s.flows.Weights[e.flow]
				if s.sumW < 1e-12 {
					s.sumW = 0
				}
			}
			continue
		}
		s.v += dv
		s.lastT += h
	}
}

// Enqueue stamps p per eqs (1)–(2) against the oracle fluid time.
func (s *WFQOracle) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	rec, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	w := rec.Weight
	s.advance(now)
	r := EffRate(p, w)
	start := math.Max(s.v, s.lastFinish[p.Flow])
	finish := start + p.Length/r
	p.VirtualStart = start
	p.VirtualFinish = finish
	s.lastFinish[p.Flow] = finish
	if s.count[p.Flow] == 0 {
		s.sumW += w
	}
	s.count[p.Flow]++
	s.seq++
	s.gh.push(gpsEntry{finish: finish, seq: s.seq, flow: p.Flow})
	s.heap.PushTag(finish, p)
	rec.Account(p)
	return nil
}

// Dequeue returns the minimum-finish-tag packet.
func (s *WFQOracle) Dequeue(now float64) (*Packet, bool) {
	if now > s.last {
		s.last = now
	}
	s.advance(now)
	if s.heap.Len() == 0 {
		return nil, false
	}
	p := s.heap.PopMin()
	s.flows.OnDequeue(p)
	return p, true
}

// Len returns the number of queued packets.
func (s *WFQOracle) Len() int { return s.heap.Len() }

// QueuedBytes returns the bytes queued for flow.
func (s *WFQOracle) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
