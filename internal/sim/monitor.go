package sim

import (
	"slices"

	"repro/internal/stats"
)

// ServiceRecord describes one completed packet transmission at a link: the
// paper's fairness definition counts a packet as served in [t1,t2] iff its
// service both starts and finishes inside the interval, so both endpoints
// are recorded.
type ServiceRecord struct {
	Flow       int
	Start, End float64
	Bytes      float64
}

// Interval is a closed time interval.
type Interval struct{ Start, End float64 }

// DefaultRecordCap bounds the departure log of a Monitor from Attach: the
// log keeps the newest DefaultRecordCap service records (48 bytes a row, so
// about 3 MiB, plus at most two chunks) and folds older rows into the
// per-flow views before it reuses their chunk. The per-flow views are not
// bounded: the delay samples and service curves gain one point per packet
// and the backlog intervals one per busy period, however long the run.
// Replay-exact consumers (the conformance checkers, the golden experiments)
// use MonitorAll instead.
const DefaultRecordCap = 1 << 16

// Monitor observes one link: per-flow cumulative service curves, exact
// backlogged intervals (needed by the fairness measure), and queueing /
// end-to-end delay samples.
//
// Its hooks only append. A departure writes one row to a departure log; a
// departure or queued drop that empties its flow's backlog — which the link
// keeps, so a monitor attached mid-run sees backlogs opened before it —
// also logs the closed interval. The per-flow views are built on read:
// every read folds the rows logged since the last one, so it sees every
// departure so far.
type Monitor struct {
	link      *Link
	recordCap int // 0 = unbounded

	// deps holds the departures not yet folded and, for a capped monitor,
	// the newest recordCap rows whether folded or not; folded counts its
	// leading rows already folded. closes holds the backlog intervals not
	// yet folded.
	deps   chunkLog[depRow]
	closes chunkLog[closeRow]
	folded int
	logged int64 // departures ever logged

	// Built by fold: every service record (unbounded monitors only) and one
	// view per flow that departed or closed a backlog.
	records []ServiceRecord
	flows   map[int]*flowView

	horizon    float64
	busyTime   float64 // cumulative transmission time
	totalBytes float64
	firstStart float64
	sawService bool
}

// depRow is one departure as logged: pointer-free, so the log's chunks are
// never scanned by the garbage collector.
type depRow struct {
	ServiceRecord
	arrived, created float64 // the frame's Arrived and Created
}

// closeRow is one closed backlog interval of a flow.
type closeRow struct {
	flow int
	iv   Interval
}

// flowView is what the monitor has folded about one flow.
type flowView struct {
	intervals []Interval       // closed backlog intervals
	qdelay    stats.Sample     // time from link arrival to end of transmission
	e2e       stats.Sample     // time from frame creation to end of transmission
	served    float64          // cumulative bytes served
	curve     stats.TimeSeries // (end of transmission, served)
}

// Attach installs a monitor on l whose departure log keeps the newest
// DefaultRecordCap service records. It chains onto the link's OnDepart and
// OnDrop hooks. Aggregate statistics (service curves, delay samples,
// backlog intervals) are unaffected by the cap — only the window that
// ServiceRecords returns is bounded.
func Attach(l *Link) *Monitor { return AttachN(l, DefaultRecordCap) }

// MonitorAll installs a monitor that keeps every service record — the
// escape hatch for replay-exact consumers (conformance differential
// checkers, golden experiments) whose audits must see each transmission.
// Memory then grows with packets sent, which is exactly what Attach's cap
// exists to avoid on long runs.
func MonitorAll(l *Link) *Monitor { return AttachN(l, 0) }

// AttachN installs a monitor keeping the newest recordCap service records
// (0 = unbounded). Its hooks run before the ones already installed; a hook
// installed later must not deliver into the link before calling on, or the
// monitor reads a backlog the delivery already reopened.
func AttachN(l *Link, recordCap int) *Monitor {
	m := &Monitor{
		link:      l,
		recordCap: recordCap,
		flows:     make(map[int]*flowView),
	}
	prevDep, prevDrop := l.OnDepart, l.OnDrop
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

// onDrop logs the backlog interval a queued frame's loss (link failure,
// permanent stall) closes. Buffer-full and enqueue-rejected drops never
// entered the queue and are ignored here.
func (m *Monitor) onDrop(f *Frame, cause DropCause) {
	if lf := f.at; cause.wasQueued() && lf.outstanding == 0 {
		m.closes.push(closeRow{f.Flow, Interval{Start: lf.openedAt, End: m.link.Now()}})
	}
}

func (m *Monitor) onDepart(f *Frame, start, end float64) {
	if m.recordCap > 0 && m.deps.full() {
		m.recycle()
	}
	m.deps.push(depRow{ServiceRecord{Flow: f.Flow, Start: start, End: end, Bytes: f.Bytes}, f.Arrived, f.Created})
	m.logged++
	if lf := f.at; lf.outstanding == 0 {
		m.closes.push(closeRow{f.Flow, Interval{Start: lf.openedAt, End: end}})
	}
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

// recycle drops the leading chunks of a capped monitor's log that hold only
// rows older than the newest recordCap, folding them first.
func (m *Monitor) recycle() {
	for len(m.deps.chunks) > 1 && m.deps.n-len(m.deps.chunks[0]) >= m.recordCap {
		n := len(m.deps.chunks[0])
		m.foldDeps(n)
		m.foldCloses()
		m.deps.dropFirst()
		m.folded -= n
	}
}

// fold brings the per-flow views (and an unbounded monitor's records) up to
// every logged row. An unbounded monitor then needs none of its rows again.
func (m *Monitor) fold() {
	if m.recordCap == 0 {
		m.records = slices.Grow(m.records, m.deps.n)
		m.foldDeps(m.deps.n)
		m.deps.reset()
		m.folded = 0
	} else {
		m.foldDeps(m.deps.n)
	}
	m.foldCloses()
}

// foldDeps folds the departure rows from m.folded up to row upto.
func (m *Monitor) foldDeps(upto int) {
	first := 0 // index of the chunk's first row
	for _, c := range m.deps.chunks {
		if m.folded >= upto {
			return
		}
		if m.folded < first+len(c) {
			for _, r := range c[m.folded-first : min(len(c), upto-first)] {
				fv := m.view(r.Flow)
				fv.qdelay.Add(r.End - r.arrived)
				fv.e2e.Add(r.End - r.created)
				fv.served += r.Bytes
				fv.curve.Add(r.End, fv.served)
				if m.recordCap == 0 {
					m.records = append(m.records, r.ServiceRecord)
				}
			}
			m.folded = min(first+len(c), upto)
		}
		first += len(c)
	}
}

// foldCloses folds every logged backlog interval and empties that log.
func (m *Monitor) foldCloses() {
	for _, c := range m.closes.chunks {
		for _, r := range c {
			fv := m.view(r.flow)
			fv.intervals = append(fv.intervals, r.iv)
		}
	}
	m.closes.reset()
}

// view returns the view of a flow the monitor has folded rows of, creating
// it on first sight. Read accessors go through seen instead.
func (m *Monitor) view(flow int) *flowView {
	fv := m.flows[flow]
	if fv == nil {
		fv = &flowView{}
		m.flows[flow] = fv
	}
	return fv
}

// seen folds the log and returns the view of flow for reading. For a flow
// the monitor has no rows of it is a fresh empty view that the monitor does
// not keep, so asking never grows the monitor; a *stats.Sample or
// *stats.TimeSeries obtained that way is detached — it stays empty even if
// the flow shows up later. One obtained for a known flow reflects the
// departures up to the monitor's latest read: take results after the run,
// or ask again.
func (m *Monitor) seen(flow int) *flowView {
	m.fold()
	if fv := m.flows[flow]; fv != nil {
		return fv
	}
	return &flowView{}
}

// ServiceRecords returns the retained service records in chronological
// order. An unbounded monitor returns its record slice itself, extended on
// each call by the departures since the last; a capped one returns a fresh
// copy of the newest RecordCap records.
func (m *Monitor) ServiceRecords() []ServiceRecord {
	m.fold()
	if m.recordCap == 0 {
		return m.records
	}
	n := min(m.deps.n, m.recordCap)
	out := make([]ServiceRecord, 0, n)
	skip := m.deps.n - n
	for _, c := range m.deps.chunks {
		if skip >= len(c) {
			skip -= len(c)
			continue
		}
		for _, r := range c[skip:] {
			out = append(out, r.ServiceRecord)
		}
		skip = 0
	}
	return out
}

// BackloggedIntervals returns the closed backlog intervals of flow. A still
// open interval is closed at the current horizon (last observed departure).
func (m *Monitor) BackloggedIntervals(flow int) []Interval {
	iv := append([]Interval(nil), m.seen(flow).intervals...)
	if lf := m.link.flows[flow]; lf != nil && lf.outstanding > 0 {
		iv = append(iv, Interval{Start: lf.openedAt, End: m.horizon})
	}
	return iv
}

// QueueDelay returns the queueing+transmission delay samples of flow at
// this link (detached for a flow the link has not served: see seen).
func (m *Monitor) QueueDelay(flow int) *stats.Sample { return &m.seen(flow).qdelay }

// ServedBytes returns the cumulative bytes of flow served so far.
func (m *Monitor) ServedBytes(flow int) float64 { return m.seen(flow).served }

// ServiceCurve returns the cumulative service curve (time → bytes) of flow
// (detached for a flow the link has not served).
func (m *Monitor) ServiceCurve(flow int) *stats.TimeSeries { return &m.seen(flow).curve }

// Utilization returns the fraction of time the link spent transmitting
// between the first service start and the last completion (0 if nothing
// was served).
func (m *Monitor) Utilization() float64 {
	if !m.sawService || m.horizon <= m.firstStart {
		return 0
	}
	return m.busyTime / (m.horizon - m.firstStart)
}

// Chunk sizes of a chunkLog: the first chunk is small, so a log that sees
// few rows stays small; each later one doubles, up to maxChunk.
const (
	firstChunk = 8
	maxChunk   = 1024
)

// chunkLog is an append-only log kept in chunks that never move: appending
// copies nothing already logged, and dropping the oldest chunk keeps a
// full-size one for reuse.
type chunkLog[T any] struct {
	chunks [][]T // oldest first; only the last has room
	n      int   // rows held
	spare  []T   // an emptied maxChunk chunk
}

// full reports whether the next push starts a chunk.
func (c *chunkLog[T]) full() bool {
	k := len(c.chunks) - 1
	return k < 0 || len(c.chunks[k]) == cap(c.chunks[k])
}

func (c *chunkLog[T]) push(v T) {
	if c.full() {
		switch k := len(c.chunks) - 1; {
		case c.spare != nil:
			c.chunks = append(c.chunks, c.spare)
			c.spare = nil
		case k < 0:
			c.chunks = append(c.chunks, make([]T, 0, firstChunk))
		default:
			c.chunks = append(c.chunks, make([]T, 0, min(2*cap(c.chunks[k]), maxChunk)))
		}
	}
	k := len(c.chunks) - 1
	c.chunks[k] = append(c.chunks[k], v)
	c.n++
}

// dropFirst drops the oldest chunk.
func (c *chunkLog[T]) dropFirst() {
	first := c.chunks[0]
	c.n -= len(first)
	if cap(first) == maxChunk {
		c.spare = first[:0]
	}
	c.chunks[0] = nil
	c.chunks = c.chunks[1:]
}

// reset empties the log, keeping its newest (and largest) chunk.
func (c *chunkLog[T]) reset() {
	if c.n == 0 {
		return
	}
	last := c.chunks[len(c.chunks)-1][:0]
	clear(c.chunks)
	c.chunks = append(c.chunks[:0], last)
	c.n = 0
}
