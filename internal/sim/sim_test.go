package sim_test

import (
	"math"
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

func newTestLink(t *testing.T, rate float64) (*eventq.Queue, *sim.Link, *sim.Sink) {
	t.Helper()
	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	sch := sched.MustNew("fifo")
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddFlow(2, 1); err != nil {
		t.Fatal(err)
	}
	link := sim.NewLink(q, "l", sch, server.NewConstantRate(rate), sink)
	return q, link, sink
}

func TestLinkTransmissionTiming(t *testing.T) {
	q, link, sink := newTestLink(t, 100)
	var departures []float64
	link.OnDepart = func(f *sim.Frame, start, end float64) { departures = append(departures, end) }
	q.At(0, func() {
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 100, Created: 0})
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 50, Created: 0})
	})
	q.Run()
	if len(departures) != 2 || departures[0] != 1 || departures[1] != 1.5 {
		t.Errorf("departures = %v, want [1 1.5]", departures)
	}
	if sink.Count(1) != 2 || sink.Bytes(1) != 150 {
		t.Errorf("sink: count=%d bytes=%v", sink.Count(1), sink.Bytes(1))
	}
	if link.Delivered() != 2 || link.QueuedBytes() != 0 {
		t.Errorf("link: delivered=%d queued=%v", link.Delivered(), link.QueuedBytes())
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	q, link, _ := newTestLink(t, 100)
	link.PropDelay = 0.25
	var arrived float64
	link.OnDepart = nil
	inner := link
	_ = inner
	q2sink := sim.ConsumerFunc(func(f *sim.Frame) { arrived = q.Now() })
	// Rebuild with a custom consumer.
	sch := sched.MustNew("fifo")
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	l2 := sim.NewLink(q, "p", sch, server.NewConstantRate(100), q2sink)
	l2.PropDelay = 0.25
	q.At(0, func() { l2.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	if arrived != 1.25 {
		t.Errorf("arrival = %v, want transmission 1.0 + prop 0.25", arrived)
	}
}

func TestLinkBufferDrops(t *testing.T) {
	q, link, sink := newTestLink(t, 100)
	link.BufferBytes = 150
	var dropped []int64
	link.OnDrop = func(f *sim.Frame, _ sim.DropCause) { dropped = append(dropped, f.Seq) }
	q.At(0, func() {
		// First frame goes straight into service (not counted against
		// the buffer); the next two queue (100+50); the fourth exceeds
		// the 150-byte buffer and drops.
		for i := int64(1); i <= 4; i++ {
			link.Deliver(&sim.Frame{Flow: 1, Seq: i, Bytes: []float64{100, 100, 50, 100}[i-1]})
		}
	})
	q.Run()
	if link.Drops() != 1 || len(dropped) != 1 || dropped[0] != 4 {
		t.Errorf("drops=%d dropped=%v", link.Drops(), dropped)
	}
	if sink.Count(1) != 3 {
		t.Errorf("sink received %d, want 3", sink.Count(1))
	}
}

func TestMonitorBackloggedIntervals(t *testing.T) {
	q, link, _ := newTestLink(t, 100)
	mon := sim.MonitorAll(link)
	q.At(0, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) })   // busy [0,1]
	q.At(5, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 200}) })   // busy [5,7]
	q.At(5.5, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) }) // extends to [5,8]
	q.Run()
	iv := mon.BackloggedIntervals(1)
	want := []sim.Interval{{Start: 0, End: 1}, {Start: 5, End: 8}}
	if len(iv) != 2 {
		t.Fatalf("intervals = %v", iv)
	}
	for i := range want {
		if math.Abs(iv[i].Start-want[i].Start) > 1e-9 || math.Abs(iv[i].End-want[i].End) > 1e-9 {
			t.Errorf("interval %d = %v, want %v", i, iv[i], want[i])
		}
	}
	if got := mon.ServedBytes(1); got != 400 {
		t.Errorf("ServedBytes = %v", got)
	}
	if n := mon.QueueDelay(1).N(); n != 3 {
		t.Errorf("delay samples = %d", n)
	}
}

func TestMonitorServiceCurve(t *testing.T) {
	q, link, _ := newTestLink(t, 100)
	mon := sim.MonitorAll(link)
	q.At(0, func() {
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		link.Deliver(&sim.Frame{Flow: 2, Bytes: 100})
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
	})
	q.Run()
	c1 := mon.ServiceCurve(1)
	if got := c1.At(1); got != 100 {
		t.Errorf("curve(1) = %v, want 100", got)
	}
	if got := c1.At(3); got != 200 {
		t.Errorf("curve(3) = %v, want 200", got)
	}
	if got := mon.ServiceCurve(2).Delta(0, 2); got != 100 {
		t.Errorf("flow2 delta = %v", got)
	}
}

func TestLinkValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil consumer should panic")
		}
	}()
	sim.NewLink(&eventq.Queue{}, "x", sched.MustNew("fifo"), server.NewConstantRate(1), nil)
}

func TestLinkUnknownFlowDropsCounted(t *testing.T) {
	// A frame whose flow the scheduler rejects (unregistered, or removed
	// with the frame still in flight) must degrade to a counted drop —
	// never a crash.
	q, link, _ := newTestLink(t, 100)
	q.At(0, func() { link.Deliver(&sim.Frame{Flow: 42, Bytes: 10}) })
	q.Run()
	if link.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", link.Drops())
	}
	if got := link.DropsFor(sim.DropEnqueueRejected); got != 1 {
		t.Errorf("enqueue-rejected drops = %d, want 1", got)
	}
	if got := link.DropsByFlow(42); got != 1 {
		t.Errorf("flow 42 drops = %d, want 1", got)
	}
}

func TestMonitorUtilization(t *testing.T) {
	q, link, _ := newTestLink(t, 100)
	mon := sim.MonitorAll(link)
	// Busy [0,1], idle [1,2], busy [2,3]: utilization = 2/3 of [0,3].
	q.At(0, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) })
	q.At(2, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	if got := mon.Utilization(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("utilization = %v, want 2/3", got)
	}
}

func TestMonitorUtilizationEmpty(t *testing.T) {
	q, link, _ := newTestLink(t, 100)
	mon := sim.MonitorAll(link)
	q.Run()
	if mon.Utilization() != 0 {
		t.Error("empty monitor should report zero utilization")
	}
}
