package sim

import (
	"slices"
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
)

// TestMonitorReadsDoNotInsert: asking the monitor about flows the link never
// saw returns empty values and leaves its per-flow state as it was. (The
// accessors used to get-or-create, so a sweep over candidate flow ids grew
// the monitor by one entry per id per map.) The views are built on read, so
// the first read is what makes flow 1's.
func TestMonitorReadsDoNotInsert(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link := NewLink(q, "l", sch, server.NewConstantRate(100), NewSink(q))
	mon := Attach(link)
	q.At(0, func() { link.Deliver(&Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	if len(mon.flows) != 0 {
		t.Fatalf("monitor built %d flow views before any read", len(mon.flows))
	}
	if b := mon.ServedBytes(1); b != 100 || len(mon.flows) != 1 {
		t.Fatalf("after one read: flow 1 served %v, monitor holds %d flows; want 100 and 1", b, len(mon.flows))
	}
	for id := 1000; id < 2000; id++ {
		curve, _ := mon.ServiceCurve(id).Points()
		if n := mon.QueueDelay(id).N() + mon.EndToEndDelay(id).N() + len(curve); n != 0 {
			t.Fatalf("unseen flow %d has %d samples", id, n)
		}
		if b, iv := mon.ServedBytes(id), mon.BackloggedIntervals(id); b != 0 || iv != nil {
			t.Fatalf("unseen flow %d: served %v, intervals %v", id, b, iv)
		}
	}
	if len(mon.flows) != 1 {
		t.Fatalf("reading 1000 unknown flows left %d entries, want 1", len(mon.flows))
	}
	if n := mon.QueueDelay(1).N(); n != 1 {
		t.Fatalf("flow 1 has %d delay samples, want 1", n)
	}
}

// stallOn is a 100 B/s server that can never finish a frame of one length.
type stallOn float64

func (s stallOn) Finish(now, length float64) float64 {
	if length == float64(s) {
		return server.Never
	}
	return now + length/100
}

func (stallOn) MeanRate() float64 { return 100 }

// TestMonitorDropCauses runs every cause a Link drops under past a monitor.
// A frame lost in transmission (link-down) or to a dead server (stalled)
// was queued, so it closes a unit of backlog and adds no delay sample; a
// frame refused on arrival (shared buffer, flow buffer, scheduler) was
// never counted and must leave the monitor untouched. The link tells them
// apart by the cause alone: it keeps no per-frame table.
func TestMonitorDropCauses(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	for f := 1; f <= 3; f++ {
		if err := sch.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	link := NewLink(q, "l", sch, stallOn(77), NewSink(q))
	link.BufferBytes = 400
	link.FlowBufferBytes = map[int]float64{2: 100}
	mon := MonitorAll(link)
	q.At(0, func() {
		for _, f := range []*Frame{
			{Flow: 1, Bytes: 100}, // in service 0..1, lost when the link fails at 0.5
			{Flow: 1, Bytes: 100}, // served 1..2 after the recovery
			{Flow: 2, Bytes: 100}, // served 2..3
			{Flow: 2, Bytes: 100}, // flow-buffer-full
			{Flow: 9, Bytes: 100}, // enqueue-rejected: flow 9 is not registered
			{Flow: 3, Bytes: 100}, // served 3..4
			{Flow: 3, Bytes: 77},  // stalled when its turn comes at 4
			{Flow: 3, Bytes: 100}, // buffer-full: 377 B are queued
		} {
			link.Deliver(f)
		}
	})
	q.At(0.5, link.Fail)
	q.At(1, link.Recover)
	q.Run()
	for _, c := range []DropCause{DropLinkDown, DropFlowBuffer, DropEnqueueRejected, DropStalled, DropBufferFull} {
		if link.DropsFor(c) != 1 {
			t.Fatalf("%s: %d drops, want 1", c, link.DropsFor(c))
		}
	}
	if mon.BackloggedIntervals(9) != nil || len(mon.flows) != 3 {
		t.Fatalf("monitor holds %d flow views after a read, want 3 (flow 9 was only ever refused)", len(mon.flows))
	}
	for flow, end := range map[int]float64{1: 2, 2: 3, 3: 4} {
		iv := mon.BackloggedIntervals(flow)
		if len(iv) != 1 || iv[0] != (Interval{Start: 0, End: end}) {
			t.Errorf("flow %d backlogged over %v, want [{0 %v}]", flow, iv, end)
		}
		if d := mon.QueueDelay(flow); d.N() != 1 || d.Max() != end {
			t.Errorf("flow %d: %d delay samples, max %v; want 1 sample of %v", flow, d.N(), d.Max(), end)
		}
	}
}

// TestMonitorAttachedMidBacklog: a monitor attached while frames are queued
// and in service reports the backlog the link opened before it, and every
// later one. (A monitor that counted backlog itself went negative on the
// frames it never saw queued and never closed an interval again, so the
// fairness measure of such a run was vacuously 0.)
func TestMonitorAttachedMidBacklog(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link := NewLink(q, "l", sch, server.NewConstantRate(100), NewSink(q))
	var mon *Monitor
	q.At(0, func() {
		for i := 0; i < 3; i++ {
			link.Deliver(&Frame{Flow: 1, Bytes: 100})
		}
	})
	q.At(0.5, func() { mon = MonitorAll(link) })
	q.At(5, func() { link.Deliver(&Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	want := []Interval{{Start: 0, End: 3}, {Start: 5, End: 6}}
	if got := mon.BackloggedIntervals(1); !slices.Equal(got, want) {
		t.Fatalf("backlogged over %v, want %v", got, want)
	}
}

// TestForgetFlowKeepsInService: a flow whose only frame is in transmission
// has nothing queued but is still backlogged, so ForgetFlow must keep its
// record — the frame carries it to completion — and the backlog closes as
// usual.
func TestForgetFlowKeepsInService(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link := NewLink(q, "l", sch, server.NewConstantRate(100), NewSink(q))
	mon := MonitorAll(link)
	q.At(0, func() { link.Deliver(&Frame{Flow: 1, Bytes: 100}) })
	q.At(0.5, func() {
		link.ForgetFlow(1)
		if len(link.flows) != 1 {
			t.Error("ForgetFlow dropped the record of a flow in service")
		}
	})
	q.Run()
	if got := mon.BackloggedIntervals(1); !slices.Equal(got, []Interval{{Start: 0, End: 1}}) {
		t.Fatalf("backlogged over %v, want [{0 1}]", got)
	}
	if link.ForgetFlow(1); len(link.flows) != 0 {
		t.Fatal("ForgetFlow kept the record of an idle flow")
	}
}

// TestMonitorRedeliveredFrame sends ONE frame round a link five times (the
// shape of the benchmark ladder's link loop): every lap its arrival time
// must be the lap's, not the first lap's, although it is the same *Frame.
func TestMonitorRedeliveredFrame(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	const laps = 5
	var link *Link
	seen := 0
	link = NewLink(q, "loop", sch, server.NewConstantRate(100), ConsumerFunc(func(f *Frame) {
		if seen++; seen < laps {
			link.Deliver(f)
		}
	}))
	mon := MonitorAll(link)
	q.At(0, func() { link.Deliver(&Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	d := mon.QueueDelay(1)
	if d.N() != laps || d.Mean() != 1 || d.Max() != 1 {
		t.Fatalf("queue delay: %d samples, mean %v, max %v; want %d samples of exactly 1", d.N(), d.Mean(), d.Max(), laps)
	}
	iv := mon.BackloggedIntervals(1)
	if len(iv) != laps {
		t.Fatalf("%d backlog intervals, want %d", len(iv), laps)
	}
	for i, v := range iv {
		if v != (Interval{Start: float64(i), End: float64(i + 1)}) {
			t.Fatalf("interval %d = %v, want [%d, %d]", i, v, i, i+1)
		}
	}
}

// TestLinkAndSinkReadsDoNotInsert: a link and a sink asked about 1 000 flows
// they never saw answer zero and keep their per-flow tables the size they
// were.
func TestLinkAndSinkReadsDoNotInsert(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	sink := NewSink(q)
	link := NewLink(q, "l", sch, server.NewConstantRate(100), sink)
	q.At(0, func() { link.Deliver(&Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	for id := 1000; id < 2000; id++ {
		if d, b := link.DropsByFlow(id), link.FlowQueuedBytes(id); d != 0 || b != 0 {
			t.Fatalf("link, unseen flow %d: %d drops, %v bytes queued", id, d, b)
		}
		if n, b := sink.Count(id), sink.Bytes(id); n != 0 || b != 0 {
			t.Fatalf("sink, unseen flow %d: %d frames, %v bytes", id, n, b)
		}
		link.ForgetFlow(id)
	}
	if len(link.flows) != 1 || len(sink.flows) != 1 {
		t.Fatalf("reading 1000 unknown flows left %d link and %d sink entries, want 1 and 1", len(link.flows), len(sink.flows))
	}
	if sink.Count(1) != 1 || sink.Bytes(1) != 100 {
		t.Fatalf("flow 1: sink saw %d frames, %v bytes", sink.Count(1), sink.Bytes(1))
	}
}

// TestQueuedBytesRunningTotal: Link.QueuedBytes is a running total, not a
// sum over flows, so with fractional lengths it must still track the
// per-flow counters and be exactly zero whenever nothing is queued.
func TestQueuedBytesRunningTotal(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	for f := 1; f <= 3; f++ {
		if err := sch.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	link := NewLink(q, "l", sch, server.NewConstantRate(100), NewSink(q))
	checks := 0
	check := func() {
		checks++
		sum := 0.0
		for f := 1; f <= 3; f++ {
			sum += link.FlowQueuedBytes(f)
		}
		if got := link.QueuedBytes(); got < sum-1e-9 || got > sum+1e-9 || (link.QueuedFrames() == 0 && got != 0) {
			t.Fatalf("QueuedBytes = %v with %d frames queued, per-flow sum %v", got, link.QueuedFrames(), sum)
		}
	}
	link.OnEnqueue = func(*Frame, float64) { check() }
	link.OnDepart = func(*Frame, float64, float64) { check() }
	for burst := 0; burst < 3; burst++ {
		q.At(float64(burst), func() {
			for i := 0; i < 30; i++ {
				link.Deliver(&Frame{Flow: 1 + i%3, Bytes: 0.1 + 0.2*float64(i%7)})
			}
		})
	}
	q.Run()
	if checks != 180 || link.QueuedBytes() != 0 {
		t.Fatalf("%d checks (want 180); QueuedBytes at rest = %v", checks, link.QueuedBytes())
	}
}
