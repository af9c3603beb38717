package sim

import (
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
)

// TestMonitorReadsDoNotInsert: asking the monitor about flows the link never
// saw returns empty values and leaves its per-flow state as it was. (The
// accessors used to get-or-create, so a sweep over candidate flow ids grew
// the monitor by one entry per id per map.)
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
	if len(mon.flows) != 1 {
		t.Fatalf("monitor holds %d flows after serving one", len(mon.flows))
	}
	for id := 1000; id < 2000; id++ {
		if n := mon.QueueDelay(id).N() + mon.EndToEndDelay(id).N() + mon.ServiceCurve(id).N(); n != 0 {
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
