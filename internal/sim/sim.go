// Package sim is the discrete-event packet network simulator the
// experiments run on — the stand-in for the REAL simulator used in the
// paper's Section 2 evaluations and for the Solaris/ATM testbed of
// Section 4. It models exactly what those evaluations need: traffic
// sources feeding output-queued links whose service order is decided by a
// pluggable scheduler and whose service rate is decided by a pluggable
// capacity process, with propagation delays, finite buffers, and per-flow
// measurement.
package sim

import (
	"math"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
)

// DropCause tags why a frame was dropped. Links, the topo engine, and the
// fault injectors all account their drops under causes of this type so a
// run's losses can be audited end to end.
type DropCause string

// Drop causes recorded by Link itself. The faults and topo packages define
// additional causes (random loss, corruption, link outage scripts,
// unroutable frames) of the same type.
const (
	// DropBufferFull: the arrival would overflow the shared buffer.
	DropBufferFull DropCause = "buffer-full"
	// DropFlowBuffer: the arrival would overflow its flow's buffer.
	DropFlowBuffer DropCause = "flow-buffer-full"
	// DropEnqueueRejected: the scheduler refused the packet (unknown or
	// removed flow, malformed length, time regression). Previously a panic;
	// a production switch must degrade, not crash, when a frame of a
	// just-removed flow is still in flight.
	DropEnqueueRejected DropCause = "enqueue-rejected"
	// DropLinkDown: the frame was in transmission when the link failed.
	DropLinkDown DropCause = "link-down"
	// DropStalled: the capacity process reported the transmission can
	// never complete (server.Never).
	DropStalled DropCause = "stalled"
)

// wasQueued reports whether a frame a Link dropped under this cause had
// been accepted into the queue first (and so was counted in its flow's
// backlog): true for a frame lost in transmission, false for one refused on
// arrival.
func (c DropCause) wasQueued() bool { return c == DropLinkDown || c == DropStalled }

// Kind distinguishes frame types on the wire.
type Kind int

// Frame kinds.
const (
	Data Kind = iota
	Ack
)

// Frame is a packet in flight through the simulated network.
type Frame struct {
	Flow    int
	Seq     int64
	Bytes   float64
	Kind    Kind
	Created float64 // time the frame left its source
	Rate    float64 // optional per-packet rate r_f^j (eq 36); 0 = flow weight
	Meta    any     // transport metadata (e.g. TCP header fields)

	// Arrived is the time the frame's current link accepted it: Deliver
	// sets it once the scheduler has taken the packet, so it is valid from
	// the link's OnEnqueue hook until the next link's Deliver overwrites
	// it. Monitors read queueing delay off it instead of remembering every
	// frame in flight.
	Arrived float64

	// at is the current link's record of the frame's flow, set beside
	// Arrived and valid as long as it is: the link reaches its flow record
	// through it when the frame leaves the queue, and a monitor reads the
	// flow's backlog through it in the OnDepart and OnDrop hooks.
	at *linkFlow

	// pool is the FramePool of the source that emitted the frame, nil for
	// a frame made any other way; Sink.Deliver returns the frame to it.
	pool *FramePool
}

// Consumer receives frames. Links, sinks, and transport endpoints all
// implement it.
type Consumer interface {
	Deliver(f *Frame)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(*Frame)

// Deliver calls fn(f).
func (fn ConsumerFunc) Deliver(f *Frame) { fn(f) }

// Link is an output-queued transmission link: frames are queued under a
// scheduling discipline and transmitted at the times dictated by a capacity
// process, then handed to the downstream consumer after a propagation
// delay.
type Link struct {
	Name string

	q *eventq.Queue
	// clock is the link's time source — the same sched.Clock abstraction
	// the wall-clock runtime (internal/rt) drives its shards with. For a
	// simulated link it IS the event queue (eventq.Queue.Now is the
	// virtual clock), so the scheduler-facing code below reads time the
	// way any runtime driver would, and the disciplines cannot tell a
	// simulation from production.
	clock sched.Clock
	sched sched.Interface
	proc  server.Process
	out   Consumer

	// PropDelay is the propagation latency added after transmission.
	PropDelay float64

	// BufferBytes caps the queued bytes (excluding the frame in
	// transmission); 0 means unbounded. Arrivals that would exceed it are
	// dropped.
	BufferBytes float64

	// FlowBufferBytes, when non-nil, caps the queued bytes of the listed
	// flows individually (per-flow tail drop); flows without an entry are
	// limited only by BufferBytes. Per-flow limits model the per-VC
	// queues of an output-queued switch.
	FlowBufferBytes map[int]float64

	// OnDrop is called on every drop with its cause (may be nil).
	OnDrop func(f *Frame, cause DropCause)

	// Hooks for measurement (may be nil). OnDepart fires when a frame
	// finishes transmission (before propagation).
	OnEnqueue func(f *Frame, now float64)
	OnDepart  func(f *Frame, startTx, endTx float64)

	busy bool
	down bool
	// pending is the handle of the scheduled completion event while busy;
	// Fail cancels it in O(1), so a failed transmission leaves no tombstone
	// event in the queue (pendingEv is recycled immediately).
	pending    eventq.Handle
	pendingEv  *linkEvent
	inflight   *Frame
	drops      int64
	dropsCause map[DropCause]int64
	delivered  int64
	// flows holds one record per flow the link has handled, looked up once
	// per arrival; a queued frame carries its record (Frame.at) from there.
	flows       map[int]*linkFlow
	queuedTotal int     // queued frames across flows
	queuedBytes float64 // queued bytes across flows; exactly 0 when queuedTotal is

	// Packet recycling: enabled iff the scheduler declares itself
	// PoolSafe, sampled lazily on the first arrival (composite schedulers
	// answer for the children wired in by then). Wrappers that retain
	// packets (the conformance recorder) never implement PoolSafe, so they
	// transparently fall back to per-packet allocation.
	pool        sched.PacketPool
	poolOK      bool
	poolChecked bool

	// Scheduler probe (may be nil): invoked around the scheduler calls so
	// tag assignment and virtual-time evolution are observable live. A nil
	// probe costs one branch per operation — the zero-alloc hot path is
	// unchanged. The virtual timer is sampled lazily like pool safety.
	probe     sched.Probe
	vtimer    sched.VirtualTimer
	vtChecked bool

	// evFree recycles the per-transmission event nodes so the completion
	// and propagation events allocate nothing in steady state.
	evFree []*linkEvent
}

// linkFlow is what a link keeps about one flow.
type linkFlow struct {
	seq    int64   // sequence number of the last accepted frame
	qBytes float64 // queued bytes (excluding in service); exactly 0 when qCount is
	qCount int     // queued frames
	drops  int64   // drops charged to the flow, all causes

	// outstanding counts the flow's queued frames plus the one in service:
	// the flow is backlogged exactly while outstanding > 0, since openedAt.
	// A completion or a queued frame's drop that brings it to 0 closes the
	// backlog interval [openedAt, now].
	outstanding int
	openedAt    float64
}

// flow returns the record of a flow the link is handling, creating it on
// first sight. Read accessors must not come through here.
func (l *Link) flow(id int) *linkFlow {
	lf := l.flows[id]
	if lf == nil {
		lf = &linkFlow{}
		l.flows[id] = lf
	}
	return lf
}

// linkEvent carries one transmission through its completion and (optional)
// propagation events, snapshotting the values the old closures captured.
// Completions need no staleness marker: Fail cancels the pending
// completion through its eventq.Handle, so a completion that fires always
// belongs to the live transmission. (Earlier revisions tagged events with
// a failure epoch and let stale completions fire as no-ops; the timing
// wheel's O(1) cancel removed the tombstones outright.)
type linkEvent struct {
	l     *Link
	f     *Frame
	start float64
	end   float64
}

func (l *Link) getEvent() *linkEvent {
	if n := len(l.evFree); n > 0 {
		ev := l.evFree[n-1]
		l.evFree[n-1] = nil
		l.evFree = l.evFree[:n-1]
		return ev
	}
	return &linkEvent{}
}

func (l *Link) putEvent(ev *linkEvent) {
	*ev = linkEvent{}
	l.evFree = append(l.evFree, ev)
}

// NewLink wires a link into the event queue q. sch decides order, proc
// decides timing, out receives transmitted frames.
func NewLink(q *eventq.Queue, name string, sch sched.Interface, proc server.Process, out Consumer) *Link {
	if q == nil || sch == nil || proc == nil || out == nil {
		panic("sim: NewLink requires all of queue, scheduler, process, consumer")
	}
	return &Link{
		Name: name, q: q, clock: q, sched: sch, proc: proc, out: out,
		dropsCause: make(map[DropCause]int64),
		flows:      make(map[int]*linkFlow),
	}
}

// Scheduler returns the link's scheduler (for flow registration).
func (l *Link) Scheduler() sched.Interface { return l.sched }

// Now returns the current time of the link's clock (the event queue's
// virtual time), so observers attached via hooks (which don't all receive
// a timestamp) can timestamp what they see.
func (l *Link) Now() float64 { return l.clock.Now() }

// SetProbe installs (or, with nil, removes) the scheduler probe. The probe
// observes every accepted enqueue, every dequeue, and — for schedulers that
// implement sched.VirtualTimer — the system virtual time after each
// operation. Probes must not retain packet references (see sched.Probe);
// packet recycling stays active while a probe is attached, and probed runs
// are bit-identical to unprobed ones because the probe only observes.
func (l *Link) SetProbe(p sched.Probe) {
	l.probe = p
	l.vtChecked = false // re-sample: the probe may be installed before wiring finished
}

// probeVT reports the scheduler's virtual time to the probe, sampling
// VirtualTimer support on first use. Called only with l.probe != nil.
func (l *Link) probeVT(now float64) {
	if !l.vtChecked {
		l.vtChecked = true
		l.vtimer, _ = l.sched.(sched.VirtualTimer)
	}
	if l.vtimer != nil {
		l.probe.OnVirtualTime(now, l.vtimer.V())
	}
}

// Drops returns the number of dropped frames.
func (l *Link) Drops() int64 { return l.drops }

// DropsByCause returns a copy of the per-cause drop counters.
func (l *Link) DropsByCause() map[DropCause]int64 {
	out := make(map[DropCause]int64, len(l.dropsCause))
	for c, n := range l.dropsCause {
		out[c] = n
	}
	return out
}

// DropsFor returns the drops recorded under one cause.
func (l *Link) DropsFor(cause DropCause) int64 { return l.dropsCause[cause] }

// DropsByFlow returns the drops charged to one flow (all causes).
func (l *Link) DropsByFlow(flow int) int64 {
	if lf := l.flows[flow]; lf != nil {
		return lf.drops
	}
	return 0
}

// Delivered returns the number of frames fully transmitted.
func (l *Link) Delivered() int64 { return l.delivered }

// QueuedBytes returns the bytes currently queued (excluding in service),
// in O(1): a running total kept beside the per-flow counters and pinned to
// exactly zero whenever nothing is queued (no float residue).
func (l *Link) QueuedBytes() float64 { return l.queuedBytes }

// FlowQueuedBytes returns the bytes of flow queued at this link.
func (l *Link) FlowQueuedBytes(flow int) float64 {
	if lf := l.flows[flow]; lf != nil {
		return lf.qBytes
	}
	return 0
}

// QueuedFrames returns the number of frames queued (excluding in service).
func (l *Link) QueuedFrames() int { return l.queuedTotal }

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// PoolActive reports whether packet recycling is enabled on this link. It
// is false until the first arrival (when the scheduler's pool safety is
// sampled) and stays false for schedulers that retain packet references.
func (l *Link) PoolActive() bool { return l.poolChecked && l.poolOK }

// drop accounts one dropped frame of the flow lf under cause.
func (l *Link) drop(f *Frame, lf *linkFlow, cause DropCause) {
	l.drops++
	l.dropsCause[cause]++
	lf.drops++
	if l.OnDrop != nil {
		l.OnDrop(f, cause)
	}
}

// account counts f, which the scheduler took at time now, as queued,
// opening its flow's backlog if it was the only frame.
func (l *Link) account(f *Frame, lf *linkFlow, now float64) {
	f.Arrived, f.at = now, lf
	if lf.outstanding == 0 {
		lf.openedAt = now
	}
	lf.outstanding++
	lf.qBytes += f.Bytes
	lf.qCount++
	l.queuedBytes += f.Bytes
	l.queuedTotal++
}

// Deliver enqueues f for transmission, dropping it (with a counted cause)
// if a buffer is full or the scheduler rejects it. Arrivals during a link
// failure queue normally and wait for recovery.
func (l *Link) Deliver(f *Frame) {
	checkLive(f, "delivered after its release")
	now := l.clock.Now()
	lf := l.flow(f.Flow)
	if l.BufferBytes > 0 && l.queuedBytes+f.Bytes > l.BufferBytes {
		l.drop(f, lf, DropBufferFull)
		return
	}
	if limit, ok := l.FlowBufferBytes[f.Flow]; ok {
		if l.sched.QueuedBytes(f.Flow)+f.Bytes > limit {
			l.drop(f, lf, DropFlowBuffer)
			return
		}
	}
	if !l.poolChecked {
		l.poolChecked = true
		l.poolOK = sched.PoolSafeScheduler(l.sched)
	}
	var p *sched.Packet
	if l.poolOK {
		p = l.pool.Get()
	} else {
		p = &sched.Packet{}
	}
	p.Flow = f.Flow
	p.Seq = lf.seq + 1
	p.Length = f.Bytes
	p.Arrival = now
	p.Rate = f.Rate
	p.Payload = f
	if err := l.sched.Enqueue(now, p); err != nil {
		if l.poolOK {
			l.pool.Put(p) // PoolSafe: a failed Enqueue retains nothing
		}
		l.drop(f, lf, DropEnqueueRejected)
		return
	}
	lf.seq++
	l.account(f, lf, now)
	if l.probe != nil {
		l.probe.OnEnqueue(now, p)
		l.probeVT(now)
	}
	if l.OnEnqueue != nil {
		l.OnEnqueue(f, now)
	}
	if !l.busy && !l.down {
		l.startNext()
	}
}

// Fail takes the link down. The frame in transmission (if any) is lost and
// counted as a DropLinkDown; queued frames stay queued behind the dead
// link. The pending completion event is cancelled outright — no stale
// event remains in the queue. Calling Fail on a down link is a no-op.
func (l *Link) Fail() {
	if l.down {
		return
	}
	l.down = true
	if l.busy {
		l.busy = false
		if l.q.Cancel(l.pending) {
			l.putEvent(l.pendingEv)
		}
		l.pendingEv = nil
		f := l.inflight
		l.inflight = nil
		f.at.outstanding--
		l.drop(f, f.at, DropLinkDown)
	}
}

// Recover brings a failed link back up and resumes transmission from the
// scheduler's current head. The scheduler's state (virtual time, tag
// chains) was untouched by the outage, so scheduling resumes exactly where
// it left off. Calling Recover on an up link is a no-op.
func (l *Link) Recover() {
	if !l.down {
		return
	}
	l.down = false
	if !l.busy {
		l.startNext()
	}
}

// ForgetFlow discards the link's per-flow bookkeeping (sequence counter,
// queue counters, drop counters, backlog) for a removed flow, bounding map
// growth under flow churn. It does nothing while a frame of the flow is
// queued or in service at this link.
func (l *Link) ForgetFlow(flow int) {
	if lf := l.flows[flow]; lf != nil && lf.outstanding > 0 {
		return // still backlogged: the frames carry the record
	}
	delete(l.flows, flow)
}

// startNext begins transmitting the scheduler's next packet, if any.
// Packets whose transmission can never complete (a permanently stalled
// capacity process) are dropped with cause DropStalled and the next packet
// is tried, so a dead server drains its queue as counted drops instead of
// wedging the simulation.
func (l *Link) startNext() {
	for {
		now := l.clock.Now()
		p, ok := l.sched.Dequeue(now)
		if !ok {
			l.busy = false
			return
		}
		f := p.Payload.(*Frame)
		length := p.Length
		if l.probe != nil {
			// Before pooling: the probe sees the packet's final tags, then
			// must drop its reference (the pool zeroes p on Put).
			l.probe.OnDequeue(now, p)
			l.probeVT(now)
		}
		if l.poolOK {
			// PoolSafe: the scheduler dropped its reference on Dequeue and
			// the link only needed Length/Payload, so the packet can be
			// recycled before the frame even finishes transmission.
			l.pool.Put(p)
		}
		lf := f.at
		lf.qBytes -= length
		lf.qCount--
		l.queuedBytes -= length
		l.queuedTotal--
		if lf.qCount == 0 {
			lf.qBytes = 0 // exact zero: empty queues hold no bytes
		}
		if l.queuedTotal == 0 {
			l.queuedBytes = 0
		}
		end := l.proc.Finish(now, length)
		if math.IsInf(end, 1) || math.IsNaN(end) {
			l.busy = false
			lf.outstanding--
			l.drop(f, lf, DropStalled)
			continue
		}
		l.busy = true
		l.inflight = f
		ev := l.getEvent()
		ev.l, ev.f, ev.start, ev.end = l, f, now, end
		l.pending = l.q.Schedule(end, linkComplete, ev)
		l.pendingEv = ev
		return
	}
}

// linkComplete fires when a transmission ends. Split out of startNext (and
// given its state via a pooled linkEvent) so per-frame completions schedule
// without allocating a closure.
func linkComplete(arg any) {
	ev := arg.(*linkEvent)
	l := ev.l
	l.inflight = nil
	l.delivered++
	ev.f.at.outstanding--
	if l.OnDepart != nil {
		l.OnDepart(ev.f, ev.start, ev.end)
	}
	if l.PropDelay > 0 {
		l.q.AfterCall(l.PropDelay, linkPropagate, ev)
	} else {
		f := ev.f
		l.putEvent(ev)
		l.out.Deliver(f)
	}
	l.startNext()
}

// linkPropagate hands the frame downstream after the propagation delay,
// reusing the completion's event node.
func linkPropagate(arg any) {
	ev := arg.(*linkEvent)
	l, f := ev.l, ev.f
	l.putEvent(ev)
	l.out.Deliver(f)
}

// Sink counts and timestamps received frames per flow. A sink is where a
// frame ends: one from a FramePool on the sink's own queue goes back to its
// pool once counted (see FramePool).
type Sink struct {
	q *eventq.Queue

	// OnReceive, if set, observes every received frame. It must not keep
	// the frame: the sink may hand it back to its source's pool on return.
	OnReceive func(f *Frame, now float64)

	flows map[int]*sinkFlow
}

// sinkFlow is what a sink has received of one flow.
type sinkFlow struct {
	count int64
	bytes float64
}

// NewSink returns a sink attached to q.
func NewSink(q *eventq.Queue) *Sink {
	return &Sink{q: q, flows: make(map[int]*sinkFlow)}
}

// Deliver records the frame, then ends it if its pool is on the sink's
// queue.
func (s *Sink) Deliver(f *Frame) {
	sf := s.flows[f.Flow]
	if sf == nil {
		sf = &sinkFlow{}
		s.flows[f.Flow] = sf
	}
	sf.count++
	sf.bytes += f.Bytes
	if s.OnReceive != nil {
		s.OnReceive(f, s.q.Now())
	}
	if p := f.pool; p != nil && p.q == s.q {
		p.put(f)
	}
}

// Count returns frames received for flow.
func (s *Sink) Count(flow int) int64 {
	if sf := s.flows[flow]; sf != nil {
		return sf.count
	}
	return 0
}

// Bytes returns bytes received for flow.
func (s *Sink) Bytes(flow int) float64 {
	if sf := s.flows[flow]; sf != nil {
		return sf.bytes
	}
	return 0
}
