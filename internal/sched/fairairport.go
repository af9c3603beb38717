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
// Data layout: each flow keeps its packets in one value slice (faEntry
// records, no per-packet allocation). The ASQ is flow-indexed — an indexed
// min-heap over the flows with unserved packets, keyed by the head entry's
// (start tag, push serial), replacing the old packet-level heap with lazy
// deletion of served entries. ASQ start tags are nondecreasing within a
// flow (rule 5 reuses the removed packet's tag; ASQ service advances it),
// so the flow head always carries the flow's minimum and the schedule is
// identical. The GSQ stays a packet-level TagHeap: it can legitimately
// hold several promoted packets of one flow.
type FairAirport struct {
	flows FlowTable
	state map[int]*faFlow

	gsq TagHeap   // promoted packets, keyed by Virtual Clock stamp
	asq faASQHeap // flows with unserved packets, keyed by head (asqStart, serial)

	reg faRegHeap // regulator heads, keyed by release time EAT^RC

	asqSeq       uint64 // ASQ head-assignment sequence (FIFO tie-break)
	asqV         float64
	asqMaxFinish float64
	busy         bool

	total int
	last  float64
}

// faEntry is a packet inside a Fair Airport server.
type faEntry struct {
	p        *Packet
	eat      float64 // EAT^RC: regulator release time (set when it becomes the regulator head)
	inGSQ    bool
	served   bool
	asqStart float64
	asqF     float64
}

type faFlow struct {
	q       []faEntry
	headIdx int     // first unserved entry
	regIdx  int     // entry whose release event is (or was) in the regulator heap; len(q) if none
	gen     int     // bumped when q is compacted, invalidating old release events
	gsqBase float64 // EAT^RC chain: earliest release of the next packet to enter GSQ
	asqBase float64 // baseline for the next arrival's ASQ start tag

	// ASQ heap state: the head entry's start tag, the sequence number of
	// the head assignment (same order the old packet heap pushed in), and
	// the flow's heap position (-1 when it has no unserved packets).
	asqKey    float64
	asqSerial uint64
	asqIdx    int
}

// faASQHeap is a hand-rolled indexed min-heap over the flows with unserved
// packets, ordered by (asqKey, asqSerial) — the head packet's SFQ start
// tag with FIFO tie-breaking in head-assignment order. Same hole-moving
// sift idiom as FlowHeap, with position tracking for fix/remove.
type faASQHeap struct{ fs []*faFlow }

func faLess(a, b *faFlow) bool {
	if a.asqKey != b.asqKey {
		return a.asqKey < b.asqKey
	}
	return a.asqSerial < b.asqSerial
}

func (h *faASQHeap) Len() int { return len(h.fs) }

func (h *faASQHeap) min() *faFlow { return h.fs[0] }

func (h *faASQHeap) push(f *faFlow) {
	h.fs = append(h.fs, f)
	h.siftUp(len(h.fs)-1, f)
}

func (h *faASQHeap) fix(f *faFlow) {
	i := f.asqIdx
	if i > 0 && faLess(f, h.fs[(i-1)/2]) {
		h.siftUp(i, f)
		return
	}
	h.siftDown(i, f)
}

func (h *faASQHeap) remove(f *faFlow) {
	i := f.asqIdx
	f.asqIdx = -1
	n := len(h.fs)
	last := h.fs[n-1]
	h.fs[n-1] = nil
	h.fs = h.fs[:n-1]
	if i == n-1 {
		return
	}
	if i > 0 && faLess(last, h.fs[(i-1)/2]) {
		h.siftUp(i, last)
		return
	}
	h.siftDown(i, last)
}

func (h *faASQHeap) siftUp(i int, f *faFlow) {
	fs := h.fs
	for i > 0 {
		parent := (i - 1) / 2
		if !faLess(f, fs[parent]) {
			break
		}
		fs[i] = fs[parent]
		fs[i].asqIdx = i
		i = parent
	}
	fs[i] = f
	f.asqIdx = i
}

func (h *faASQHeap) siftDown(i int, f *faFlow) {
	fs := h.fs
	n := len(fs)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && faLess(fs[r], fs[child]) {
			child = r
		}
		if !faLess(fs[child], f) {
			break
		}
		fs[i] = fs[child]
		fs[i].asqIdx = i
		i = child
	}
	fs[i] = f
	f.asqIdx = i
}

type faRegEvent struct {
	eat  float64
	seq  uint64
	flow int
	idx  int
	gen  int
}

// faRegHeap is a typed min-heap of regulator release events ordered by
// (eat, seq); hand-rolled like TagHeap to keep the regulator boxing-free.
type faRegHeap struct {
	es  []faRegEvent
	seq uint64
}

func (a faRegEvent) less(b faRegEvent) bool {
	if a.eat != b.eat {
		return a.eat < b.eat
	}
	return a.seq < b.seq
}

func (h *faRegHeap) Len() int { return len(h.es) }

func (h *faRegHeap) push(eat float64, flow, idx, gen int) {
	h.seq++
	e := faRegEvent{eat: eat, seq: h.seq, flow: flow, idx: idx, gen: gen}
	h.es = append(h.es, e)
	es := h.es
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = e
}

func (h *faRegHeap) pop() faRegEvent {
	es := h.es
	top := es[0]
	n := len(es) - 1
	e := es[n]
	h.es = es[:n]
	es = es[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && es[r].less(es[l]) {
			min = r
		}
		if !es[min].less(e) {
			break
		}
		es[i] = es[min]
		i = min
	}
	if n > 0 {
		es[i] = e
	}
	return top
}

// NewFairAirport returns an empty Fair Airport scheduler.
//
// Deprecated: prefer New("fairairport").
func NewFairAirport() *FairAirport {
	return &FairAirport{state: make(map[int]*faFlow)}
}

// AddFlow registers flow with reserved rate `weight` (bytes/second).
func (s *FairAirport) AddFlow(flow int, weight float64) error {
	if err := s.flows.Add(flow, weight); err != nil {
		return err
	}
	if _, ok := s.state[flow]; !ok {
		s.state[flow] = &faFlow{gsqBase: math.Inf(-1), asqIdx: -1}
	}
	return nil
}

// RemoveFlow unregisters an idle flow. Its entry slice is released; any
// regulator events still in flight are invalidated by the flow lookup.
func (s *FairAirport) RemoveFlow(flow int) error {
	if err := s.flows.Remove(flow); err != nil {
		return err
	}
	delete(s.state, flow)
	return nil
}

// Enqueue adds p to the flow's regulator and to the ASQ (rules 1–2).
func (s *FairAirport) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	rec, err := s.flows.Lookup(p)
	if err != nil {
		return err
	}
	r := EffRate(p, rec.Weight)
	f := s.state[p.Flow]
	f.q = append(f.q, faEntry{p: p})
	e := &f.q[len(f.q)-1]

	// ASQ head bookkeeping: if this packet is the flow's only unserved
	// packet it becomes the ASQ head now (eq 4 with the ASQ virtual time)
	// and the flow joins the ASQ heap.
	if f.headIdx == len(f.q)-1 {
		e.asqStart = math.Max(s.asqV, f.asqBase)
		e.asqF = e.asqStart + p.Length/r
		p.VirtualStart = e.asqStart
		p.VirtualFinish = e.asqF
		s.asqSeq++
		f.asqKey = e.asqStart
		f.asqSerial = s.asqSeq
		s.asq.push(f)
	}

	// Regulator bookkeeping: if the regulator has no pending release for
	// this flow, this packet becomes the regulator head (eq 120).
	if f.regIdx == len(f.q)-1 {
		e.eat = math.Max(p.Arrival, f.gsqBase)
		s.reg.push(e.eat, p.Flow, f.regIdx, f.gen)
	}

	rec.Account(p)
	s.total++
	return nil
}

// promote moves every regulator head whose release time has passed into
// the GSQ, chaining successive release events (rule 2 / eq 120).
func (s *FairAirport) promote(now float64) {
	for s.reg.Len() > 0 && s.reg.es[0].eat <= now {
		ev := s.reg.pop()
		f := s.state[ev.flow]
		if f == nil || ev.gen != f.gen || ev.idx >= len(f.q) || ev.idx != f.regIdx {
			continue // stale after compaction, service, or flow removal
		}
		e := &f.q[ev.idx]
		if !e.served && !e.inGSQ {
			// Release into the GSQ with the Virtual Clock stamp
			// EAT^GSQ + l/r, where EAT^GSQ = EAT^RC (rule 3, eq 139).
			e.inGSQ = true
			r := EffRate(e.p, s.flows.Weights[ev.flow])
			stamp := e.eat + e.p.Length/r
			f.gsqBase = stamp
			s.gsq.PushTag(stamp, e.p)
		}
		// Advance the regulator to the next unserved, unpromoted packet.
		f.regIdx = ev.idx + 1
		for f.regIdx < len(f.q) && (f.q[f.regIdx].served || f.q[f.regIdx].inGSQ) {
			f.regIdx++
		}
		if f.regIdx < len(f.q) {
			next := &f.q[f.regIdx]
			next.eat = math.Max(next.p.Arrival, f.gsqBase)
			s.reg.push(next.eat, ev.flow, f.regIdx, f.gen)
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
		s.finishService(p, true)
		return p, true
	}

	// ASQ service: the minimum flow's head is the minimum unserved start
	// tag. (With the GSQ empty no unserved entry is promoted, so the head
	// is always directly servable — no staleness to skip.)
	f := s.asq.min()
	e := &f.q[f.headIdx]
	p := e.p
	s.asqV = e.asqStart
	s.finishService(p, false)
	return p, true
}

// finishService marks the flow head served via the given route and sets up
// the flow's next head (rule 5 for GSQ service).
func (s *FairAirport) finishService(p *Packet, viaGSQ bool) {
	f := s.state[p.Flow]
	e := &f.q[f.headIdx]
	e.served = true
	e.p = nil // the scheduler keeps no reference to a served packet
	if e.asqF > s.asqMaxFinish {
		s.asqMaxFinish = e.asqF
	}

	// Advance the head and assign the next packet's ASQ tags.
	f.headIdx++
	var nextStart float64
	if viaGSQ {
		// Rule 5: the next ASQ packet inherits the removed packet's
		// start tag — GSQ service is free in ASQ currency.
		nextStart = e.asqStart
	} else {
		nextStart = e.asqF // max(asqV, e.asqF) == e.asqF since asqV == e.asqStart
	}
	if f.headIdx < len(f.q) {
		next := &f.q[f.headIdx]
		r := EffRate(next.p, s.flows.Weights[p.Flow])
		next.asqStart = nextStart
		next.asqF = nextStart + next.p.Length/r
		next.p.VirtualStart = next.asqStart
		next.p.VirtualFinish = next.asqF
		s.asqSeq++
		f.asqKey = next.asqStart
		f.asqSerial = s.asqSeq
		s.asq.fix(f)
	} else {
		// Queue drained: compact and remember the tag baseline.
		s.asq.remove(f)
		f.q = f.q[:0]
		f.headIdx = 0
		f.regIdx = 0
		f.gen++
		f.asqBase = nextStart
	}

	s.flows.OnDequeue(p)
	s.total--
}

// PacketPoolSafe reports that Fair Airport retains no dequeued packets:
// served entries nil out their packet pointer, the GSQ heap zeroes popped
// slots, and the flow-indexed ASQ holds flows, not packets. (Before the
// flow-indexed ASQ, lazy deletion kept stale *Packet pointers alive and
// FA was excluded from pooling.)
func (s *FairAirport) PacketPoolSafe() bool { return true }

// Len returns the number of queued packets.
func (s *FairAirport) Len() int { return s.total }

// QueuedBytes returns the bytes queued for flow.
func (s *FairAirport) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
