package sim

import (
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

// DefaultRecordCap bounds the per-packet service records a Monitor from
// Attach keeps: the newest DefaultRecordCap transmissions, ring-style. At
// 32 bytes per record this caps monitor growth at ~2 MiB per link no
// matter how long the run is. Replay-exact consumers (the conformance
// checkers, the golden experiments) use MonitorAll instead.
const DefaultRecordCap = 1 << 16

// Monitor observes one link: per-flow cumulative service curves, exact
// backlogged intervals (needed by the fairness measure), and queueing /
// end-to-end delay samples.
type Monitor struct {
	link *Link

	// Records holds the completed transmissions. While fewer than the
	// record cap have completed (always, for a MonitorAll monitor) it is
	// chronological and may be indexed directly; once a capped monitor
	// wraps, use ServiceRecords for the ordered window and
	// TruncatedRecords for how many were displaced.
	Records []ServiceRecord

	recordCap int   // 0 = unbounded
	recStart  int   // index of the oldest record once wrapped
	truncated int64 // records displaced by the cap

	// flows holds one record per flow the link has seen, so each hook pays
	// one lookup per packet. (When a frame arrived rides on the frame:
	// Frame.Arrived.)
	flows map[int]*flowMon

	horizon float64

	busyTime   float64 // cumulative transmission time
	totalBytes float64
	firstStart float64
	sawService bool
}

// flowMon is what the monitor keeps about one flow.
type flowMon struct {
	// outstanding counts queued + in-service packets; the flow is
	// backlogged exactly while outstanding > 0, since openedAt.
	outstanding int
	openedAt    float64
	intervals   []Interval // closed backlog intervals

	qdelay stats.Sample     // time from link arrival to end of transmission
	e2e    stats.Sample     // time from frame creation to end of transmission
	served float64          // cumulative bytes served
	curve  stats.TimeSeries // (end of transmission, served)
}

// flow returns the record of a flow the link is handling, creating it on
// first sight. Read accessors must not come through here: asking about a
// flow the link never saw must not make the monitor remember it.
func (m *Monitor) flow(id int) *flowMon {
	fm := m.flows[id]
	if fm == nil {
		fm = &flowMon{}
		m.flows[id] = fm
	}
	return fm
}

// Attach installs a monitor on l with the DefaultRecordCap bound on
// per-packet records. It takes over the link's OnEnqueue and OnDepart
// hooks (chaining with any hooks already installed). Aggregate statistics
// (service curves, delay samples, backlog intervals) are unaffected by the
// cap — only the per-transmission record window is bounded.
func Attach(l *Link) *Monitor { return AttachN(l, DefaultRecordCap) }

// MonitorAll installs a monitor that keeps every service record — the
// escape hatch for replay-exact consumers (conformance differential
// checkers, golden experiments) whose audits must see each transmission.
// Memory then grows with packets sent, which is exactly what Attach's cap
// exists to avoid on long runs.
func MonitorAll(l *Link) *Monitor { return AttachN(l, 0) }

// AttachN installs a monitor keeping at most recordCap service records
// (0 = unbounded).
func AttachN(l *Link, recordCap int) *Monitor {
	m := &Monitor{
		link:      l,
		recordCap: recordCap,
		flows:     make(map[int]*flowMon),
	}
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

// onDrop keeps the backlog bookkeeping consistent when a frame that was
// already enqueued is dropped later (link failure, permanent stall).
// Buffer-full and enqueue-rejected drops never entered the queue and are
// ignored here.
func (m *Monitor) onDrop(f *Frame, cause DropCause) {
	if cause.wasQueued() {
		m.flow(f.Flow).closeOne(m.link.q.Now())
	}
}

// closeOne takes one packet off the flow's backlog, at time now, closing
// the backlog interval when it was the last.
func (fm *flowMon) closeOne(now float64) {
	fm.outstanding--
	if fm.outstanding == 0 {
		fm.intervals = append(fm.intervals, Interval{Start: fm.openedAt, End: now})
	}
}

func (m *Monitor) onEnqueue(f *Frame, now float64) {
	fm := m.flow(f.Flow)
	if fm.outstanding == 0 {
		fm.openedAt = now
	}
	fm.outstanding++
}

func (m *Monitor) onDepart(f *Frame, start, end float64) {
	rec := ServiceRecord{Flow: f.Flow, Start: start, End: end, Bytes: f.Bytes}
	if m.recordCap > 0 && len(m.Records) == m.recordCap {
		// Ring semantics: overwrite the oldest record in place, keeping
		// memory fixed on arbitrarily long runs.
		m.Records[m.recStart] = rec
		m.recStart++
		if m.recStart == m.recordCap {
			m.recStart = 0
		}
		m.truncated++
	} else {
		m.Records = append(m.Records, rec)
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

// ServiceRecords returns the retained service records in chronological
// order. For an unwrapped (or unbounded) monitor it returns Records
// itself, allocation-free; once a capped monitor wraps it returns a fresh
// ordered copy of the window.
func (m *Monitor) ServiceRecords() []ServiceRecord {
	if m.recStart == 0 {
		return m.Records
	}
	out := make([]ServiceRecord, 0, len(m.Records))
	out = append(out, m.Records[m.recStart:]...)
	return append(out, m.Records[:m.recStart]...)
}

// TruncatedRecords returns how many service records the cap displaced (0
// for MonitorAll monitors).
func (m *Monitor) TruncatedRecords() int64 { return m.truncated }

// RecordCap returns the monitor's record bound (0 = unbounded).
func (m *Monitor) RecordCap() int { return m.recordCap }

// seen returns the record of flow for reading. For a flow the link has not
// seen it is a fresh empty record that the monitor does not keep, so asking
// never grows the monitor; a *stats.Sample or *stats.TimeSeries obtained
// that way is detached — it stays empty even if the flow shows up later —
// so take results after the run, or ask again.
func (m *Monitor) seen(flow int) *flowMon {
	if fm := m.flows[flow]; fm != nil {
		return fm
	}
	return &flowMon{}
}

// BackloggedIntervals returns the closed backlog intervals of flow. A still
// open interval is closed at the current horizon (last observed departure).
func (m *Monitor) BackloggedIntervals(flow int) []Interval {
	fm := m.seen(flow)
	iv := append([]Interval(nil), fm.intervals...)
	if fm.outstanding > 0 {
		iv = append(iv, Interval{Start: fm.openedAt, End: m.horizon})
	}
	return iv
}

// QueueDelay returns the queueing+transmission delay samples of flow at
// this link (detached for a flow the link has not seen: see seen).
func (m *Monitor) QueueDelay(flow int) *stats.Sample { return &m.seen(flow).qdelay }

// EndToEndDelay returns creation-to-transmission delay samples of flow
// (detached for a flow the link has not seen).
func (m *Monitor) EndToEndDelay(flow int) *stats.Sample { return &m.seen(flow).e2e }

// ServedBytes returns the cumulative bytes of flow served so far.
func (m *Monitor) ServedBytes(flow int) float64 { return m.seen(flow).served }

// ServiceCurve returns the cumulative service curve (time → bytes) of flow
// (detached for a flow the link has not seen).
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

// TotalBytes returns the bytes transmitted across all flows.
func (m *Monitor) TotalBytes() float64 { return m.totalBytes }

// MeanServiceRate returns total bytes over the observed span (the
// effective capacity the link delivered while active).
func (m *Monitor) MeanServiceRate() float64 {
	if !m.sawService || m.horizon <= m.firstStart {
		return 0
	}
	return m.totalBytes / (m.horizon - m.firstStart)
}
