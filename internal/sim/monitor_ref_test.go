package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/stats"
)

// refMonitor is the eager monitor the departure log replaced, kept as the
// differential reference: it counts each flow's backlog itself from the
// OnEnqueue hook and appends to the per-flow samples, curves and interval
// lists on every departure. It is exact for a monitor attached before the
// link's first arrival, which is how the harness below attaches it.
type refMonitor struct {
	link *Link

	records   []ServiceRecord
	recordCap int   // 0 = unbounded
	recStart  int   // index of the oldest record once wrapped
	truncated int64 // records displaced by the cap

	flows map[int]*refFlowMon

	horizon    float64
	busyTime   float64
	totalBytes float64
	firstStart float64
	sawService bool
}

type refFlowMon struct {
	outstanding int
	openedAt    float64
	intervals   []Interval

	qdelay stats.Sample
	e2e    stats.Sample
	served float64
	curve  stats.TimeSeries
}

func (m *refMonitor) flow(id int) *refFlowMon {
	fm := m.flows[id]
	if fm == nil {
		fm = &refFlowMon{}
		m.flows[id] = fm
	}
	return fm
}

func refAttachN(l *Link, recordCap int) *refMonitor {
	m := &refMonitor{link: l, recordCap: recordCap, flows: make(map[int]*refFlowMon)}
	prevEnq, prevDep, prevDrop := l.OnEnqueue, l.OnDepart, l.OnDrop
	l.OnEnqueue = func(f *Frame, now float64) {
		m.onEnqueue(f, now)
		if prevEnq != nil {
			prevEnq(f, now)
		}
	}
	l.OnDepart = func(f *Frame, start, end float64) {
		m.onDepart(f, start, end)
		if prevDep != nil {
			prevDep(f, start, end)
		}
	}
	l.OnDrop = func(f *Frame, cause DropCause) {
		m.onDrop(f, cause)
		if prevDrop != nil {
			prevDrop(f, cause)
		}
	}
	return m
}

func (m *refMonitor) onDrop(f *Frame, cause DropCause) {
	if cause.wasQueued() {
		m.flow(f.Flow).closeOne(m.link.q.Now())
	}
}

func (fm *refFlowMon) closeOne(now float64) {
	fm.outstanding--
	if fm.outstanding == 0 {
		fm.intervals = append(fm.intervals, Interval{Start: fm.openedAt, End: now})
	}
}

func (m *refMonitor) onEnqueue(f *Frame, now float64) {
	fm := m.flow(f.Flow)
	if fm.outstanding == 0 {
		fm.openedAt = now
	}
	fm.outstanding++
}

func (m *refMonitor) onDepart(f *Frame, start, end float64) {
	rec := ServiceRecord{Flow: f.Flow, Start: start, End: end, Bytes: f.Bytes}
	if m.recordCap > 0 && len(m.records) == m.recordCap {
		m.records[m.recStart] = rec
		m.recStart++
		if m.recStart == m.recordCap {
			m.recStart = 0
		}
		m.truncated++
	} else {
		m.records = append(m.records, rec)
	}
	fm := m.flow(f.Flow)
	fm.closeOne(end)
	fm.qdelay.Add(end - f.Arrived)
	fm.e2e.Add(end - f.Created)
	fm.served += f.Bytes
	fm.curve.Add(end, fm.served)
	if end > m.horizon {
		m.horizon = end
	}
	m.busyTime += end - start
	m.totalBytes += f.Bytes
	if !m.sawService {
		m.sawService = true
		m.firstStart = start
	}
}

func (m *refMonitor) ServiceRecords() []ServiceRecord {
	if m.recStart == 0 {
		return m.records
	}
	out := make([]ServiceRecord, 0, len(m.records))
	out = append(out, m.records[m.recStart:]...)
	return append(out, m.records[:m.recStart]...)
}

func (m *refMonitor) seen(flow int) *refFlowMon {
	if fm := m.flows[flow]; fm != nil {
		return fm
	}
	return &refFlowMon{}
}

func (m *refMonitor) BackloggedIntervals(flow int) []Interval {
	fm := m.seen(flow)
	iv := append([]Interval(nil), fm.intervals...)
	if fm.outstanding > 0 {
		iv = append(iv, Interval{Start: fm.openedAt, End: m.horizon})
	}
	return iv
}

func (m *refMonitor) Utilization() float64 {
	if !m.sawService || m.horizon <= m.firstStart {
		return 0
	}
	return m.busyTime / (m.horizon - m.firstStart)
}

func (m *refMonitor) MeanServiceRate() float64 {
	if !m.sawService || m.horizon <= m.firstStart {
		return 0
	}
	return m.totalBytes / (m.horizon - m.firstStart)
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRecords(a, b []ServiceRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Flow != b[i].Flow || !sameBits([]float64{a[i].Start, a[i].End, a[i].Bytes}, []float64{b[i].Start, b[i].End, b[i].Bytes}) {
			return false
		}
	}
	return true
}

func intervalBits(iv []Interval) []float64 {
	out := make([]float64, 0, 2*len(iv))
	for _, v := range iv {
		out = append(out, v.Start, v.End)
	}
	return out
}

// sameAsRef compares everything m answers with what ref answers, bit for
// bit, over the given flow ids.
func sameAsRef(m *Monitor, ref *refMonitor, flows []int) error {
	if got, want := m.ServiceRecords(), ref.ServiceRecords(); !sameRecords(got, want) {
		return fmt.Errorf("records: %d %v, reference %d %v", len(got), got, len(want), want)
	}
	if got, want := m.TruncatedRecords(), ref.truncated; got != want {
		return fmt.Errorf("truncated %d, reference %d", got, want)
	}
	for _, f := range flows {
		fm := ref.seen(f)
		if got, want := m.QueueDelay(f).Values(), fm.qdelay.Values(); !sameBits(got, want) {
			return fmt.Errorf("flow %d queue delay %v, reference %v", f, got, want)
		}
		if got, want := m.EndToEndDelay(f).Values(), fm.e2e.Values(); !sameBits(got, want) {
			return fmt.Errorf("flow %d end-to-end delay %v, reference %v", f, got, want)
		}
		gt, gv := m.ServiceCurve(f).Points()
		wt, wv := fm.curve.Points()
		if !sameBits(gt, wt) || !sameBits(gv, wv) {
			return fmt.Errorf("flow %d curve %v %v, reference %v %v", f, gt, gv, wt, wv)
		}
		if got, want := m.ServedBytes(f), fm.served; !sameBits([]float64{got}, []float64{want}) {
			return fmt.Errorf("flow %d served %v, reference %v", f, got, want)
		}
		got, want := m.BackloggedIntervals(f), ref.BackloggedIntervals(f)
		if (got == nil) != (want == nil) || !sameBits(intervalBits(got), intervalBits(want)) {
			return fmt.Errorf("flow %d backlogged %v, reference %v", f, got, want)
		}
	}
	if !sameBits(
		[]float64{m.Utilization(), m.TotalBytes(), m.MeanServiceRate()},
		[]float64{ref.Utilization(), ref.totalBytes, ref.MeanServiceRate()}) {
		return fmt.Errorf("aggregates %v %v %v, reference %v %v %v", m.Utilization(), m.TotalBytes(),
			m.MeanServiceRate(), ref.Utilization(), ref.totalBytes, ref.MeanServiceRate())
	}
	return nil
}

// sameLatest compares what a read in the middle of a departure sees — how
// many records are kept and the newest; how many samples the departing flow
// has, the newest of each, its served bytes — in O(1) for an unbounded
// monitor, so that reading on every departure stays cheap.
func sameLatest(m *Monitor, ref *refMonitor, f int) error {
	gr, wr := m.ServiceRecords(), ref.ServiceRecords()
	if len(gr) != len(wr) || len(gr) == 0 || !sameRecords(gr[len(gr)-1:], wr[len(wr)-1:]) {
		return fmt.Errorf("on departure: %d records, reference %d, newest differ", len(gr), len(wr))
	}
	fm := ref.seen(f)
	gq, wq := m.QueueDelay(f).Values(), fm.qdelay.Values()
	ge, we := m.EndToEndDelay(f).Values(), fm.e2e.Values()
	gt, gv := m.ServiceCurve(f).Last()
	wt, wv := fm.curve.Last()
	if len(gq) == 0 || len(gq) != len(wq) || len(ge) != len(we) ||
		!sameBits([]float64{gq[len(gq)-1], ge[len(ge)-1], gt, gv, m.ServedBytes(f), m.TotalBytes()},
			[]float64{wq[len(wq)-1], we[len(we)-1], wt, wv, fm.served, ref.totalBytes}) {
		return fmt.Errorf("flow %d on departure: %d samples, newest %v %v, curve (%v, %v), served %v;"+
			" reference %d, %v %v, (%v, %v), %v", f, len(gq), gq, ge, gt, gv, m.ServedBytes(f),
			len(wq), wq, we, wt, wv, fm.served)
	}
	return nil
}

// rigFlows are the ids the rig reads back: the four registered flows, the
// unregistered 9 (every frame refused) and 42 (never sent).
var rigFlows = []int{0, 1, 2, 3, 9, 42}

// monRig drives one link, with the log monitor and the reference on it both
// unbounded and capped, from an op stream. The link serves 100 B/s
// but can never finish a 77-byte frame, caps its buffer at 300 B and flow
// 2's at 100 B, and flow 9 is not registered: every drop cause occurs.
type monRig struct {
	ops  []byte
	q    *eventq.Queue
	link *Link
	mons [2]*Monitor
	refs [2]*refMonitor
	// hookReads makes every departure read the departing flow, from an
	// OnDepart hook that runs after all four monitors' (fig3 reads while
	// running, too).
	hookReads bool
	err       error
}

func (r *monRig) next() int {
	if len(r.ops) == 0 {
		return 0
	}
	b := r.ops[0]
	r.ops = r.ops[1:]
	return int(b)
}

func (r *monRig) compare(same func(*Monitor, *refMonitor) error) {
	for i := range r.mons {
		if err := same(r.mons[i], r.refs[i]); err != nil && r.err == nil {
			r.err = fmt.Errorf("t=%v, cap %d: %v", r.q.Now(), r.mons[i].RecordCap(), err)
		}
	}
}

func (r *monRig) compareAll() {
	r.compare(func(m *Monitor, ref *refMonitor) error { return sameAsRef(m, ref, rigFlows) })
}

// runMonRig plays ops and returns the rig with the first difference between
// a monitor and its reference. The first three bytes choose the discipline,
// how many packets the link adopts from a restored scheduler before any
// arrival, and the record cap, 1 to 64: small, so that the capped monitors
// wrap and recycle chunks early, and varied, so that the newest-cap window
// meets every chunk boundary.
func runMonRig(ops []byte) (*monRig, error) {
	r := &monRig{ops: ops, q: &eventq.Queue{}}
	var sch sched.Interface
	switch r.next() % 3 {
	case 0:
		sch = sched.NewFIFO()
	case 1:
		sch = sched.NewSCFQ()
	default:
		sch = sched.NewDRR(100)
	}
	for f := 0; f < 4; f++ {
		if err := sch.AddFlow(f, float64(f+1)); err != nil {
			return nil, err
		}
	}
	lengths := [...]float64{25, 77, 50, 100}
	adopt := r.next() % 8
	for i := 0; i < adopt; i++ {
		p := &sched.Packet{Flow: i % 4, Seq: int64(i/4 + 1), Length: lengths[i%4]}
		if err := sch.Enqueue(0, p); err != nil {
			return nil, err
		}
	}
	r.link = NewLink(r.q, "rig", sch, stallOn(77), ConsumerFunc(func(*Frame) {}))
	r.link.BufferBytes = 300
	r.link.FlowBufferBytes = map[int]float64{2: 100}
	r.link.OnDepart = func(f *Frame, _, _ float64) {
		if r.hookReads {
			r.compare(func(m *Monitor, ref *refMonitor) error { return sameLatest(m, ref, f.Flow) })
		}
	}
	for i, c := range []int{0, 1 + r.next()%64} {
		r.refs[i] = refAttachN(r.link, c)
		r.mons[i] = AttachN(r.link, c)
	}
	if n := r.link.AdoptBacklog(); n != adopt {
		return nil, fmt.Errorf("adopted %d of %d packets", n, adopt)
	}
	for len(r.ops) > 0 && r.err == nil {
		now := r.q.Now()
		switch r.next() % 12 {
		case 0, 1, 2, 3:
			flow := rigFlows[r.next()%5]
			r.link.Deliver(&Frame{Flow: flow, Bytes: lengths[r.next()%4], Created: now - float64(r.next()%4)/4})
		case 4, 5, 6:
			r.q.RunUntil(now + float64(r.next()%8)/4)
		case 7:
			r.link.Fail()
		case 8, 9:
			r.link.Recover()
		case 10:
			if r.next()%2 == 0 {
				r.compareAll()
			} else {
				r.hookReads = !r.hookReads
			}
		case 11:
			r.link.ForgetFlow(rigFlows[r.next()%5])
		}
	}
	r.link.Recover()
	r.q.Run()
	r.compareAll()
	return r, r.err
}

// TestMonitorMatchesReference pins the departure log against the eager
// monitor it replaced on random op streams, with every record cap in turn,
// some long enough for the capped monitors to recycle full-size chunks.
func TestMonitorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var most int64
	for i := 0; i < 128; i++ {
		n := 50 + rng.Intn(400)
		if i == 0 || i == 64 && !testing.Short() {
			n = 100000
		}
		ops := make([]byte, n)
		rng.Read(ops)
		ops[2] = byte(i) // the cap
		r, err := runMonRig(ops)
		if err != nil {
			t.Fatalf("stream %d (%d ops): %v", i, n, err)
		}
		most = max(most, r.mons[1].logged)
	}
	if most < 4*maxChunk {
		t.Fatalf("longest stream logged %d departures: too few to reuse a full-size chunk", most)
	}
}

// FuzzMonitorLog: any op stream leaves the departure log monitor answering
// exactly what the eager reference answers, after every read.
func FuzzMonitorLog(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 3, 3, 7})
	f.Add([]byte{1, 5, 0, 0, 1, 2, 1, 3, 2, 0, 5, 3, 4, 6, 7, 9, 1, 8, 0, 2, 0, 3, 7, 7})
	f.Add([]byte{2, 7, 8, 0, 0, 0, 0, 1, 0, 0, 2, 2, 0, 3, 3, 5, 5, 6, 4, 6, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if _, err := runMonRig(ops); err != nil {
			t.Fatal(err)
		}
	})
}
