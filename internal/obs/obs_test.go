package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// buildRun wires one SFQ link with two flows and a deterministic burst of
// arrivals. It returns before running the queue so tests can attach what
// they need first.
func buildRun(t *testing.T) (*eventq.Queue, *sim.Link) {
	t.Helper()
	q := &eventq.Queue{}
	sch := core.New()
	for f, w := range map[int]float64{1: 3, 2: 1} {
		if err := sch.AddFlow(f, w); err != nil {
			t.Fatal(err)
		}
	}
	link := sim.NewLink(q, "l0", sch, server.NewConstantRate(1000), sim.NewSink(q))
	q.At(0, func() {
		for i := 0; i < 20; i++ {
			link.Deliver(&sim.Frame{Flow: 1, Seq: int64(i), Bytes: 100})
			link.Deliver(&sim.Frame{Flow: 2, Seq: int64(i), Bytes: 100})
		}
	})
	return q, link
}

func TestObserverCounters(t *testing.T) {
	q, link := buildRun(t)
	o := obs.Observe(link)
	q.Run()
	s := o.Snapshot()

	if s.Link != "l0" {
		t.Errorf("link = %q", s.Link)
	}
	if s.Delivered != 40 || s.Delivered != link.Delivered() {
		t.Errorf("delivered = %d (link %d), want 40", s.Delivered, link.Delivered())
	}
	// Probe counters must agree with the link's own accounting: every
	// accepted enqueue and every dequeue is probed exactly once.
	if s.ProbeEnqueues != 40 || s.ProbeDequeues != 40 {
		t.Errorf("probe ops = %d/%d, want 40/40", s.ProbeEnqueues, s.ProbeDequeues)
	}
	// SFQ implements VirtualTimer, so every probed op also samples v(t).
	// SFQ's v(t) is the start tag of the packet in service (eq 4); the
	// last packet dequeued is flow 2's 20th (weight 1, 100-byte packets),
	// whose start tag is 19·100 = 1900.
	if s.VTSamples != 80 {
		t.Errorf("vt samples = %d, want 80", s.VTSamples)
	}
	if s.VT != 1900 {
		t.Errorf("vt = %v, want 1900", s.VT)
	}
	if len(s.Flows) != 2 || s.Flows[0].Flow != 1 || s.Flows[1].Flow != 2 {
		t.Fatalf("flows = %+v", s.Flows)
	}
	for _, f := range s.Flows {
		if f.ArrivedPkts != 20 || f.ServedPkts != 20 || f.ServedBytes != 2000 {
			t.Errorf("flow %d: %+v", f.Flow, f)
		}
		if f.Delay.Count != 20 || f.Delay.Min <= 0 || f.Delay.Max > 4.001 {
			t.Errorf("flow %d delay: %+v", f.Flow, f.Delay)
		}
		if f.RateBps <= 0 {
			t.Errorf("flow %d rate = %v, want > 0", f.Flow, f.RateBps)
		}
	}
	// 40 frames arrive at t=0; the first goes straight into service, so
	// the queue peaks at 39 frames / 3900 bytes.
	if s.HWMFrames != 39 || s.HWMBytes != 3900 {
		t.Errorf("hwm = %d frames / %v bytes, want 39/3900", s.HWMFrames, s.HWMBytes)
	}
	if s.TraceLen != 80 || s.TraceDropped != 0 {
		t.Errorf("trace = %d/%d, want 80 events, 0 dropped", s.TraceLen, s.TraceDropped)
	}
}

func TestObserverDrops(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.NewFIFO()
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link := sim.NewLink(q, "l", sch, server.NewConstantRate(1000), sim.NewSink(q))
	link.BufferBytes = 150
	o := obs.Observe(link)
	q.At(0, func() {
		for i := 0; i < 4; i++ {
			link.Deliver(&sim.Frame{Flow: 1, Seq: int64(i), Bytes: 100})
		}
	})
	q.Run()
	s := o.Snapshot()
	// Frame 0 enters service, frame 1 queues (100 ≤ 150), frames 2 and 3
	// would exceed the buffer.
	if s.Dropped != 2 || s.Drops[string(sim.DropBufferFull)] != 2 {
		t.Errorf("drops = %d %v", s.Dropped, s.Drops)
	}
	if s.Flows[0].DroppedPkts != 2 {
		t.Errorf("flow drops = %+v", s.Flows[0])
	}
	// Dropped frames never depart: served counts exclude them and the
	// trace records 2 arrive-less drops.
	if s.Flows[0].ServedPkts != 2 {
		t.Errorf("served = %d, want 2", s.Flows[0].ServedPkts)
	}
	var kinds []string
	o.Trace().Do(func(e obs.Event) { kinds = append(kinds, e.Kind.String()) })
	want := "arrive,arrive,drop,drop,depart,depart"
	if got := strings.Join(kinds, ","); got != want {
		t.Errorf("trace kinds = %s, want %s", got, want)
	}
}

func TestTraceRingBounded(t *testing.T) {
	q, link := buildRun(t)
	o := obs.Observe(link, obs.WithTraceCap(8))
	q.Run()
	if o.Trace().Len() != 8 || o.Trace().Overwritten() != 72 {
		t.Errorf("trace len=%d overwritten=%d, want 8/72", o.Trace().Len(), o.Trace().Overwritten())
	}
	// The retained window is the newest 8 events, still time-ordered.
	prev := math.Inf(-1)
	o.Trace().Do(func(e obs.Event) {
		if e.Time < prev {
			t.Errorf("trace out of order: %v after %v", e.Time, prev)
		}
		prev = e.Time
	})
	s := o.Snapshot()
	if s.TraceLen != 8 || s.TraceDropped != 72 {
		t.Errorf("snapshot trace = %d/%d", s.TraceLen, s.TraceDropped)
	}

	// WithTraceCap(0) disables the ring entirely.
	q2, link2 := buildRun(t)
	o2 := obs.Observe(link2, obs.WithTraceCap(0))
	q2.Run()
	if o2.Trace() != nil {
		t.Error("trace ring present despite WithTraceCap(0)")
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	run := func() []byte {
		q, link := buildRun(t)
		reg := obs.NewRegistry()
		reg.Observe(link)
		q.Run()
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("snapshot JSON differs between identical runs:\n%s\n----\n%s", a, b)
	}
	// And it round-trips as valid JSON.
	var snaps []obs.Snapshot
	if err := json.Unmarshal(a, &snaps); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Link != "l0" {
		t.Errorf("decoded %+v", snaps)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	q, link := buildRun(t)
	o := obs.Observe(link)
	// Snapshot mid-run, then let the run finish: the early snapshot must
	// not change.
	var mid obs.Snapshot
	q.After(0.5, func() { mid = o.Snapshot() })
	q.Run()
	if mid.Delivered == o.Snapshot().Delivered {
		t.Fatal("mid-run snapshot taken after completion?")
	}
	midJSON, _ := json.Marshal(mid)
	q2, link2 := buildRun(t)
	o2 := obs.Observe(link2)
	var mid2 obs.Snapshot
	q2.After(0.5, func() { mid2 = o2.Snapshot() })
	q2.Run()
	mid2JSON, _ := json.Marshal(mid2)
	if !bytes.Equal(midJSON, mid2JSON) {
		t.Errorf("mid-run snapshots differ:\n%s\n----\n%s", midJSON, mid2JSON)
	}
}

func TestRegistry(t *testing.T) {
	q := &eventq.Queue{}
	reg := obs.NewRegistry()
	var links []*sim.Link
	for _, name := range []string{"b", "a"} {
		sch := sched.NewFIFO()
		if err := sch.AddFlow(1, 1); err != nil {
			t.Fatal(err)
		}
		l := sim.NewLink(q, name, sch, server.NewConstantRate(1000), sim.NewSink(q))
		reg.Observe(l)
		links = append(links, l)
	}
	if got := reg.Links(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("links = %v", got)
	}
	if reg.Get("a") == nil || reg.Get("nope") != nil {
		t.Error("Get misbehaves")
	}
	snaps := reg.Snapshot()
	if len(snaps) != 2 || snaps[0].Link != "a" || snaps[1].Link != "b" {
		t.Errorf("snapshots = %+v", snaps)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate link name did not panic")
		}
	}()
	reg.Observe(links[0])
}

func TestObserveComposesWithMonitor(t *testing.T) {
	// Monitor attached first, observer second (and the reverse) — both
	// see every event.
	for _, obsFirst := range []bool{false, true} {
		q, link := buildRun(t)
		var mon *sim.Monitor
		var o *obs.Observer
		if obsFirst {
			o = obs.Observe(link)
			mon = sim.Attach(link)
		} else {
			mon = sim.Attach(link)
			o = obs.Observe(link)
		}
		q.Run()
		if n := len(mon.ServiceRecords()); n != 40 {
			t.Errorf("obsFirst=%v: monitor records = %d", obsFirst, n)
		}
		if s := o.Snapshot(); s.Delivered != 40 {
			t.Errorf("obsFirst=%v: observer delivered = %d", obsFirst, s.Delivered)
		}
	}
}

func TestPeriodicDumpTerminates(t *testing.T) {
	q, link := buildRun(t)
	reg := obs.NewRegistry()
	reg.Observe(link)
	var buf bytes.Buffer
	obs.PeriodicDump(q, &buf, reg, 1.0)
	q.Run() // must terminate: the dump stops rescheduling once alone
	dumps := strings.Count(buf.String(), "# dump ")
	// The run drains 4000 bytes at 1000 B/s. Dumps fire at t=1..4; the
	// t=4 dump was scheduled before the final same-instant departure, so
	// it still sees a pending event and reschedules once more: the t=5
	// dump fires alone and stops. Without the q.Len() guard this loop
	// would never end.
	if dumps != 5 {
		t.Errorf("dumps = %d, want 5\n%s", dumps, buf.String())
	}
	if q.Now() != 5 {
		t.Errorf("final time = %v, want 5", q.Now())
	}
}
