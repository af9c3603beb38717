package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eventq"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// noPoolWrap hides a scheduler's PoolSafe declaration: embedding the bare
// interface exposes only sched.Interface methods, so the link's type
// assertion fails and pooling stays off. This is exactly what the
// conformance recorder does implicitly.
type noPoolWrap struct{ sched.Interface }

// TestLinkPacketPoolLifecycle checks that a pool-safe scheduler turns
// recycling on, that the free list stays bounded by the backlog peak (not
// by packets sent), and that hiding pool safety keeps recycling off.
func TestLinkPacketPoolLifecycle(t *testing.T) {
	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	sch := sched.NewFIFO()
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link := sim.NewLink(q, "l", sch, server.NewConstantRate(100), sink)
	if link.PoolActive() {
		t.Error("pool should be inactive before the first arrival")
	}
	const n = 500
	for i := 0; i < n; i++ {
		tt := float64(i) * 0.02 // slightly faster than the 0.01s service time drains
		q.At(tt, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 1, Created: tt}) })
	}
	q.Run()
	if !link.PoolActive() {
		t.Error("FIFO is pool-safe; recycling should be active")
	}
	if sink.Count(1) != n {
		t.Errorf("sink received %d frames, want %d", sink.Count(1), n)
	}
	if got := link.PooledPackets(); got == 0 || got > 8 {
		t.Errorf("free list holds %d packets, want small and non-zero (bounded by backlog peak, not %d sends)", got, n)
	}

	// The same scheduler behind a wrapper that hides PoolSafe: no recycling.
	q2 := &eventq.Queue{}
	sch2 := sched.NewFIFO()
	if err := sch2.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link2 := sim.NewLink(q2, "l2", noPoolWrap{sch2}, server.NewConstantRate(100), sim.NewSink(q2))
	q2.At(0, func() { link2.Deliver(&sim.Frame{Flow: 1, Bytes: 1, Created: 0}) })
	q2.Run()
	if link2.PoolActive() || link2.PooledPackets() != 0 {
		t.Error("wrapped scheduler must disable recycling")
	}
}

// poolEquivRun drives one seeded scenario — bursty arrivals, a degraded
// server, link outages, and random downstream loss — and returns a full
// observable transcript: departures, deliveries, and per-cause drops.
func poolEquivRun(seed int64, hidePool bool) string {
	q := &eventq.Queue{}
	rng := rand.New(rand.NewSource(seed))
	out := ""
	sink := sim.ConsumerFunc(func(f *sim.Frame) {
		out += fmt.Sprintf("rx %d/%d @%.9f\n", f.Flow, f.Seq, q.Now())
	})
	lossy := faults.NewLossy(rand.New(rand.NewSource(seed+1)), sink, 0.05, 0.05)
	var s sched.Interface = sched.NewSCFQ()
	s.AddFlow(1, 1)
	s.AddFlow(2, 2)
	if hidePool {
		s = noPoolWrap{s}
	}
	proc := faults.NewModulated(server.NewConstantRate(1000), []faults.Episode{
		{Start: 0.5, Duration: 0.3, Factor: 0},
		{Start: 1.0, Duration: 0.5, Factor: 0.25},
	})
	link := sim.NewLink(q, "l", s, proc, lossy)
	link.BufferBytes = 400
	link.OnDepart = func(f *sim.Frame, start, end float64) {
		out += fmt.Sprintf("tx %d/%d %.9f..%.9f\n", f.Flow, f.Seq, start, end)
	}
	faults.ScheduleOutages(q, link, []faults.Outage{{At: 0.7, Duration: 0.2}, {At: 1.6, Duration: 0.1}})
	for flow := 1; flow <= 2; flow++ {
		flow := flow
		tt, seq := 0.0, int64(0)
		for {
			tt += rng.ExpFloat64() * 0.02
			if tt >= 2.5 {
				break
			}
			seq++
			at, sq := tt, seq
			q.At(at, func() { link.Deliver(&sim.Frame{Flow: flow, Seq: sq, Bytes: 50, Created: at}) })
		}
	}
	q.Run()
	if link.PoolActive() == hidePool {
		panic("sim_test: pool gating did not take effect")
	}
	out += fmt.Sprintf("drops %v delivered %d\n", link.Drops(), link.Delivered())
	for _, c := range []sim.DropCause{sim.DropBufferFull, sim.DropLinkDown, sim.DropStalled,
		faults.DropRandomLoss, faults.DropCorrupt} {
		out += fmt.Sprintf("%s=%d ", c, link.DropsFor(c)+lossy.DropsByCause()[c])
	}
	return out
}

// TestPoolEquivalenceUnderFaults runs the same chaotic scenario with
// recycling on and off and requires byte-identical transcripts: pooling is
// an allocation strategy, never an observable behavior — including across
// Fail/Recover, stalls, full buffers, and lossy delivery.
func TestPoolEquivalenceUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		pooled := poolEquivRun(seed, false)
		plain := poolEquivRun(seed, true)
		if pooled != plain {
			t.Fatalf("seed %d: pooled and unpooled runs diverged\npooled:\n%s\nunpooled:\n%s", seed, pooled, plain)
		}
	}
}
