package sched

import "math"

// FairAirport implements the Fair Airport (FA) scheduler of Appendix B: a
// work-conserving combination of a per-flow rate regulator, a Virtual
// Clock Guaranteed Service Queue (GSQ), and an SFQ Auxiliary Service Queue
// (ASQ). Every arriving packet joins both the regulator and the ASQ; when
// its regulator release time EAT^RC passes, it moves to the GSQ (unless
// the ASQ already served it). The server gives strict priority to the GSQ.
//
// The result (Theorems 8 and 9): the delay guarantee of WFQ
// (EAT + l/r + l_max/C) together with fair allocation of bandwidth — even
// over variable-rate links — at the implementation cost of a non
// work-conserving dynamic-priority scheduler.
//
// Rule 5 of the algorithm is the subtle part: when the GSQ serves a packet
// that is still queued in the ASQ, the *start tag of the flow's next ASQ
// packet is set to the start tag of the packet being removed*, so GSQ
// service does not charge the flow in ASQ currency.
//
// Data layout: a flow's packets queue in its record's FIFO, and both routes
// serve its head — the regulator releases in order, Virtual Clock stamps
// grow along a flow, and the ASQ is consulted only when the GSQ is empty. So
// the GSQ (a packet-level TagHeap) holds each FIFO's front Flow.promoted
// packets and the regulator holds the one behind them. The ASQ is the flow
// heap over backlogged flows, the head keyed by its ASQ start tag and
// head-assignment sequence; the head's ASQ tags are its VirtualStart and
// VirtualFinish. Flow.EAT is the regulator's chain (its zero value stands
// in for −∞, times being nonnegative), Flow.LastFinish an idle flow's ASQ
// baseline.
type FairAirport struct {
	flows FlowTable
	pool  ChunkPool

	gsq TagHeap     // promoted packets, keyed by Virtual Clock stamp
	asq FlowHeap    // backlogged flows, keyed by head (asqStart, asqSeq)
	reg faRegulator // pending releases, keyed by EAT^RC

	asqSeq       uint64 // ASQ head-assignment sequence (FIFO tie-break)
	asqV         float64
	asqMaxFinish float64
	busy         bool

	total int
	last  float64
}

// faRelease is a flow's pending regulator release: the packet behind its
// promoted ones becomes eligible for the GSQ at eat (EAT^RC). served marks a
// release whose packet the ASQ sent first: it still runs out — the flow's
// next packet is not armed before eat — but promotes nothing.
type faRelease struct {
	eat    float64
	seq    uint64
	f      *Flow
	served bool
}

func (a *faRelease) less(b *faRelease) bool {
	if a.eat != b.eat {
		return a.eat < b.eat
	}
	return a.seq < b.seq
}

// faRegulator is an indexed min-heap of releases ordered by (eat, seq), at
// most one per flow; Flow.regPos is the flow's position, -1 when none.
type faRegulator struct {
	rs  []faRelease
	seq uint64
}

func (h *faRegulator) push(f *Flow, eat float64) {
	h.seq++
	h.rs = append(h.rs, faRelease{})
	h.up(len(h.rs)-1, faRelease{eat: eat, seq: h.seq, f: f})
}

// remove deletes the release at position i and returns it.
func (h *faRegulator) remove(i int) faRelease {
	r, n := h.rs[i], len(h.rs)-1
	r.f.regPos = -1
	last := h.rs[n]
	h.rs[n] = faRelease{}
	h.rs = h.rs[:n]
	if i < n {
		h.down(i, last)
		h.up(int(last.f.regPos), last) // a no-op unless down left it at i
	}
	return r
}

func (h *faRegulator) up(i int, r faRelease) {
	for i > 0 {
		parent := (i - 1) / 2
		if !r.less(&h.rs[parent]) {
			break
		}
		h.set(i, h.rs[parent])
		i = parent
	}
	h.set(i, r)
}

func (h *faRegulator) down(i int, r faRelease) {
	n := len(h.rs)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.rs[c+1].less(&h.rs[c]) {
			c++
		}
		if !h.rs[c].less(&r) {
			break
		}
		h.set(i, h.rs[c])
		i = c
	}
	h.set(i, r)
}

func (h *faRegulator) set(i int, r faRelease) {
	h.rs[i] = r
	r.f.regPos = int32(i)
}

// AddFlow registers flow with reserved rate `weight` (bytes/second).
func (s *FairAirport) AddFlow(flow int, weight float64) error { return s.flows.Add(flow, weight) }

// RemoveFlow unregisters an idle flow. An idle flow has no pending release
// and holds no chunk: nothing is left pointing at its record.
func (s *FairAirport) RemoveFlow(flow int) error { return s.flows.Remove(flow) }

// Enqueue adds p to the flow's regulator and to the ASQ (rules 1–2).
func (s *FairAirport) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	f, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	f.Push(&s.pool, 0, 0, 0, p)
	if f.n == 1 { // the flow's only packet is its ASQ head (eq 4, ASQ virtual time)
		s.setHead(f, math.Max(s.asqV, f.LastFinish))
		s.asq.Push(f)
	}
	if f.regPos < 0 {
		// Every earlier packet is promoted: the regulator holds this one.
		s.arm(f, p)
	}
	s.total++
	return nil
}

// setHead gives f's head packet its ASQ tags, starting at start, and keys
// the flow's heap slot by them. The caller restores the heap order.
func (s *FairAirport) setHead(f *Flow, start float64) {
	p := f.headItem().p
	p.VirtualStart = start
	p.VirtualFinish = start + p.Length/EffRate(p, f.Weight)
	s.asqSeq++
	f.SetHeadKey(start, float64(s.asqSeq))
}

// arm schedules the release of p, the packet behind f's promoted ones
// (eq 120).
func (s *FairAirport) arm(f *Flow, p *Packet) { s.reg.push(f, math.Max(p.Arrival, f.EAT)) }

// promote moves every held packet whose release time has passed into the
// GSQ, chaining successive releases (rule 2 / eq 120).
func (s *FairAirport) promote(now float64) {
	for len(s.reg.rs) > 0 && s.reg.rs[0].eat <= now {
		r := s.reg.remove(0)
		f := r.f
		if !r.served {
			// Release into the GSQ with the Virtual Clock stamp
			// EAT^GSQ + l/r, where EAT^GSQ = EAT^RC (rule 3, eq 139).
			p := f.at(int(f.promoted))
			f.EAT = r.eat + p.Length/EffRate(p, f.Weight)
			s.gsq.PushTag(f.EAT, p)
			f.promoted++
		}
		if f.promoted < f.n {
			s.arm(f, f.at(int(f.promoted)))
		}
	}
}

// Dequeue serves the GSQ if it is backlogged, otherwise the ASQ (rule 6).
func (s *FairAirport) Dequeue(now float64) (*Packet, bool) {
	if now > s.last {
		s.last = now
	}
	s.promote(now)

	if s.total == 0 {
		if s.busy {
			s.busy = false
			s.asqV = s.asqMaxFinish
		}
		return nil, false
	}
	s.busy = true

	if s.gsq.Len() > 0 {
		p := s.gsq.PopMin()
		f := s.flows.Get(p.Flow)
		f.promoted--
		// Rule 5: the next ASQ packet inherits the removed packet's start
		// tag — GSQ service is free in ASQ currency.
		s.serve(f, p.VirtualStart)
		return p, true
	}

	// ASQ service: with the GSQ empty no flow has a promoted packet, so
	// the minimum flow's head is the packet its regulator holds.
	f := s.asq.Min()
	p := f.headItem().p
	s.asqV = p.VirtualStart
	s.reg.rs[f.regPos].served = true
	s.serve(f, p.VirtualFinish)
	return p, true
}

// serve pops f's head and starts the flow's next ASQ packet at start.
func (s *FairAirport) serve(f *Flow, start float64) {
	p := f.Pop(&s.pool)
	if p.VirtualFinish > s.asqMaxFinish {
		s.asqMaxFinish = p.VirtualFinish
	}
	if f.n > 0 {
		s.setHead(f, start)
		s.asq.Fix(f)
	} else {
		s.asq.Remove(f)
		f.LastFinish = start
		if f.regPos >= 0 {
			s.reg.remove(int(f.regPos)) // its packet is gone: the next arrival arms at once
		}
	}
	s.total--
}

// PacketPoolSafe reports that Fair Airport retains no dequeued packets: the
// FIFO pop zeroes its slot and the GSQ heap zeroes popped slots.
func (s *FairAirport) PacketPoolSafe() bool { return true }

// Len returns the number of queued packets.
func (s *FairAirport) Len() int { return s.total }

// QueuedBytes returns the bytes queued for flow.
func (s *FairAirport) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
