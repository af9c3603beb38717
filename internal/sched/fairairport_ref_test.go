package sched

import "math"

// refFairAirport is the Fair Airport that kept its packets outside the flow
// record — per-flow entry slices addressed by position, served/inGSQ
// tombstones, a generation counter bumped on compaction, a private ASQ heap
// — kept as the differential reference for FairAirport
// (TestFairAirportMatchesReference, FuzzFairAirport). It is that code with
// one change: a re-added flow continues its predecessor's generation count,
// so a regulator event left over from the removed flow can no longer match
// the new one and release its packet early (TestFAReaddedFlowNotReleasedEarly
// pins the fix in FairAirport). The flow record's counters are kept by hand,
// as Flow.Account/Unaccount kept them.
type refFairAirport struct {
	flows FlowTable
	state map[int]*refFAFlow
	gens  map[int]int // generation a re-added flow starts at

	gsq TagHeap
	asq refASQHeap
	reg refRegHeap

	asqSeq       uint64
	asqV         float64
	asqMaxFinish float64
	busy         bool

	total int
	last  float64
}

type refFAEntry struct {
	p        *Packet
	eat      float64
	inGSQ    bool
	served   bool
	asqStart float64
	asqF     float64
}

type refFAFlow struct {
	q       []refFAEntry
	headIdx int
	regIdx  int
	gen     int
	gsqBase float64
	asqBase float64

	asqKey    float64
	asqSerial uint64
	asqIdx    int
}

type refASQHeap struct{ fs []*refFAFlow }

func refFALess(a, b *refFAFlow) bool {
	if a.asqKey != b.asqKey {
		return a.asqKey < b.asqKey
	}
	return a.asqSerial < b.asqSerial
}

func (h *refASQHeap) min() *refFAFlow { return h.fs[0] }

func (h *refASQHeap) push(f *refFAFlow) {
	h.fs = append(h.fs, f)
	h.siftUp(len(h.fs)-1, f)
}

func (h *refASQHeap) fix(f *refFAFlow) {
	i := f.asqIdx
	if i > 0 && refFALess(f, h.fs[(i-1)/2]) {
		h.siftUp(i, f)
		return
	}
	h.siftDown(i, f)
}

func (h *refASQHeap) remove(f *refFAFlow) {
	i := f.asqIdx
	f.asqIdx = -1
	n := len(h.fs)
	last := h.fs[n-1]
	h.fs[n-1] = nil
	h.fs = h.fs[:n-1]
	if i == n-1 {
		return
	}
	if i > 0 && refFALess(last, h.fs[(i-1)/2]) {
		h.siftUp(i, last)
		return
	}
	h.siftDown(i, last)
}

func (h *refASQHeap) siftUp(i int, f *refFAFlow) {
	fs := h.fs
	for i > 0 {
		parent := (i - 1) / 2
		if !refFALess(f, fs[parent]) {
			break
		}
		fs[i] = fs[parent]
		fs[i].asqIdx = i
		i = parent
	}
	fs[i] = f
	f.asqIdx = i
}

func (h *refASQHeap) siftDown(i int, f *refFAFlow) {
	fs := h.fs
	n := len(fs)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && refFALess(fs[r], fs[child]) {
			child = r
		}
		if !refFALess(fs[child], f) {
			break
		}
		fs[i] = fs[child]
		fs[i].asqIdx = i
		i = child
	}
	fs[i] = f
	f.asqIdx = i
}

type refRegEvent struct {
	eat  float64
	seq  uint64
	flow int
	idx  int
	gen  int
}

type refRegHeap struct {
	es  []refRegEvent
	seq uint64
}

func (a refRegEvent) less(b refRegEvent) bool {
	if a.eat != b.eat {
		return a.eat < b.eat
	}
	return a.seq < b.seq
}

func (h *refRegHeap) push(eat float64, flow, idx, gen int) {
	h.seq++
	e := refRegEvent{eat: eat, seq: h.seq, flow: flow, idx: idx, gen: gen}
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

func (h *refRegHeap) pop() refRegEvent {
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

func newRefFairAirport() *refFairAirport {
	return &refFairAirport{state: make(map[int]*refFAFlow), gens: make(map[int]int)}
}

func (s *refFairAirport) AddFlow(flow int, weight float64) error {
	if err := s.flows.Add(flow, weight); err != nil {
		return err
	}
	if _, ok := s.state[flow]; !ok {
		s.state[flow] = &refFAFlow{gsqBase: math.Inf(-1), asqIdx: -1, gen: s.gens[flow]}
	}
	return nil
}

func (s *refFairAirport) RemoveFlow(flow int) error {
	if err := s.flows.Remove(flow); err != nil {
		return err
	}
	s.gens[flow] = s.state[flow].gen + 1
	delete(s.state, flow)
	return nil
}

func (s *refFairAirport) Enqueue(now float64, p *Packet) error {
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
	f.q = append(f.q, refFAEntry{p: p})
	e := &f.q[len(f.q)-1]

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

	if f.regIdx == len(f.q)-1 {
		e.eat = math.Max(p.Arrival, f.gsqBase)
		s.reg.push(e.eat, p.Flow, f.regIdx, f.gen)
	}

	rec.n++
	rec.bytes += p.Length
	s.total++
	return nil
}

func (s *refFairAirport) promote(now float64) {
	for len(s.reg.es) > 0 && s.reg.es[0].eat <= now {
		ev := s.reg.pop()
		f := s.state[ev.flow]
		if f == nil || ev.gen != f.gen || ev.idx >= len(f.q) || ev.idx != f.regIdx {
			continue
		}
		e := &f.q[ev.idx]
		if !e.served && !e.inGSQ {
			e.inGSQ = true
			r := EffRate(e.p, s.flows.Weights[ev.flow])
			stamp := e.eat + e.p.Length/r
			f.gsqBase = stamp
			s.gsq.PushTag(stamp, e.p)
		}
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

func (s *refFairAirport) Dequeue(now float64) (*Packet, bool) {
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

	f := s.asq.min()
	e := &f.q[f.headIdx]
	p := e.p
	s.asqV = e.asqStart
	s.finishService(p, false)
	return p, true
}

func (s *refFairAirport) finishService(p *Packet, viaGSQ bool) {
	f := s.state[p.Flow]
	e := &f.q[f.headIdx]
	e.served = true
	e.p = nil
	if e.asqF > s.asqMaxFinish {
		s.asqMaxFinish = e.asqF
	}

	f.headIdx++
	var nextStart float64
	if viaGSQ {
		nextStart = e.asqStart
	} else {
		nextStart = e.asqF
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
		s.asq.remove(f)
		f.q = f.q[:0]
		f.headIdx = 0
		f.regIdx = 0
		f.gen++
		f.asqBase = nextStart
	}

	rec := s.flows.Get(p.Flow)
	rec.n--
	rec.bytes -= p.Length
	if rec.n == 0 {
		rec.bytes = 0
	}
	s.total--
}

func (s *refFairAirport) Len() int { return s.total }

func (s *refFairAirport) QueuedBytes(flow int) float64 { return s.flows.QueuedBytes(flow) }
