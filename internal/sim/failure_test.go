package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// TestPerFlowBufferIsolation: a misbehaving flow's drops do not consume
// another flow's buffer space when per-flow limits are set.
func TestPerFlowBufferIsolation(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 1); err != nil {
		t.Fatal(err)
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(100), sink)
	link.FlowBufferBytes = map[int]float64{1: 200, 2: 200}
	dropsByFlow := map[int]int{}
	link.OnDrop = func(f *sim.Frame, _ sim.DropCause) { dropsByFlow[f.Flow]++ }

	q.At(0, func() {
		// Flow 1 floods: 10 packets of 100 B; one goes into service, two
		// fit its 200 B buffer, seven drop.
		for i := 0; i < 10; i++ {
			link.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		}
		// Flow 2 sends two packets; both fit its own buffer.
		link.Deliver(&sim.Frame{Flow: 2, Bytes: 100})
		link.Deliver(&sim.Frame{Flow: 2, Bytes: 100})
	})
	q.Run()
	if dropsByFlow[1] != 7 {
		t.Errorf("flow 1 drops = %d, want 7", dropsByFlow[1])
	}
	if dropsByFlow[2] != 0 {
		t.Errorf("flow 2 drops = %d, want 0 (isolated buffer)", dropsByFlow[2])
	}
	if sink.Count(2) != 2 {
		t.Errorf("flow 2 delivered %d, want 2", sink.Count(2))
	}
}

// TestSharedAndPerFlowBuffersCompose: the stricter of the two limits
// applies.
func TestSharedAndPerFlowBuffersCompose(t *testing.T) {
	q := &eventq.Queue{}
	s := sched.MustNew("fifo")
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(100), sink)
	link.BufferBytes = 150
	link.FlowBufferBytes = map[int]float64{1: 1000}
	q.At(0, func() {
		for i := 0; i < 5; i++ {
			link.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		}
	})
	q.Run()
	// 1 in service + 1 in the 150 B shared buffer; 3 dropped despite the
	// generous per-flow limit.
	if link.Drops() != 3 {
		t.Errorf("drops = %d, want 3", link.Drops())
	}
}

// TestFlowChurnMidRun: flows are added and removed while the link runs;
// bookkeeping stays consistent and no packets are lost or duplicated.
func TestFlowChurnMidRun(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(1000), sink)
	rng := rand.New(rand.NewSource(4))

	delivered := 0
	next := 1
	active := map[int]bool{}
	var tick func()
	tick = func() {
		now := q.Now()
		if now > 10 {
			return
		}
		switch rng.Intn(4) {
		case 0: // add a flow
			if err := s.AddFlow(next, 100+rng.Float64()*400); err != nil {
				t.Errorf("AddFlow: %v", err)
			}
			active[next] = true
			next++
		case 1: // remove an idle flow if any
			for f := range active {
				if s.QueuedBytes(f) == 0 {
					if err := s.RemoveFlow(f); err == nil {
						delete(active, f)
					}
					break
				}
			}
		default: // send on a random active flow
			for f := range active {
				link.Deliver(&sim.Frame{Flow: f, Bytes: 50 + rng.Float64()*200})
				delivered++
				break
			}
		}
		q.After(0.01+rng.Float64()*0.05, tick)
	}
	q.At(0, tick)
	q.Run()

	total := int64(0)
	for f := 1; f < next; f++ {
		total += sink.Count(f)
	}
	if int(total) != delivered {
		t.Errorf("sink got %d frames, sent %d", total, delivered)
	}
	if link.QueuedBytes() != 0 {
		t.Errorf("residual queued bytes %v", link.QueuedBytes())
	}
}

// TestLinkFailRecover: an outage loses exactly the in-flight frame,
// queued frames survive and are transmitted after recovery, and the
// scheduler's virtual-time state carries across the outage.
func TestLinkFailRecover(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(100), sink)

	q.At(0, func() {
		for i := 0; i < 4; i++ {
			link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) // 1 s each
		}
	})
	// Fail mid-transmission of the second frame (t = 1.5); recover at 3.
	q.At(1.5, link.Fail)
	q.At(3, link.Recover)
	q.Run()

	if got := link.DropsFor(sim.DropLinkDown); got != 1 {
		t.Errorf("link-down drops = %d, want 1 (the in-flight frame)", got)
	}
	if sink.Count(1) != 3 {
		t.Errorf("delivered = %d, want 3 (frames 1, 3, 4)", sink.Count(1))
	}
	// Frame 3 starts at recovery (t=3) and takes 1 s, frame 4 follows.
	if now := q.Now(); math.Abs(now-5) > 1e-9 {
		t.Errorf("last completion at %v, want 5", now)
	}
	if link.QueuedBytes() != 0 || link.QueuedFrames() != 0 {
		t.Errorf("residual queue: %v bytes, %d frames", link.QueuedBytes(), link.QueuedFrames())
	}
	if link.Down() {
		t.Error("link still reports down after Recover")
	}
}

// TestLinkFailWhileIdleAndDoubleTransitions: Fail/Recover are idempotent
// and an idle-link outage loses nothing; arrivals during the outage queue
// and are served on recovery.
func TestLinkFailWhileIdleAndDoubleTransitions(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(100), sink)

	q.At(0, link.Fail)
	q.At(0, link.Fail) // double fail: no-op
	q.At(1, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) })
	q.At(2, link.Recover)
	q.At(2, link.Recover) // double recover: no-op
	q.Run()

	if link.Drops() != 0 {
		t.Errorf("drops = %d, want 0", link.Drops())
	}
	if sink.Count(1) != 1 {
		t.Errorf("delivered = %d, want 1", sink.Count(1))
	}
	if now := q.Now(); math.Abs(now-3) > 1e-9 {
		t.Errorf("completion at %v, want 3 (recovery + 1 s)", now)
	}
}

// TestLinkPermanentStallDrainsAsDrops: a capacity process that dies
// permanently (terminal zero rate) must not wedge the simulation — every
// unservable frame becomes a counted DropStalled.
func TestLinkPermanentStallDrainsAsDrops(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	sink := sim.NewSink(q)
	// 100 B/s for one second, then dead forever.
	link := sim.NewLink(q, "l", s, server.NewPiecewise(
		[]float64{0, 1}, []float64{100, 0}), sink)
	q.At(0, func() {
		for i := 0; i < 3; i++ {
			link.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		}
	})
	q.Run()
	if sink.Count(1) != 1 {
		t.Errorf("delivered = %d, want 1 (only the pre-stall frame)", sink.Count(1))
	}
	if got := link.DropsFor(sim.DropStalled); got != 2 {
		t.Errorf("stalled drops = %d, want 2", got)
	}
	if link.QueuedFrames() != 0 {
		t.Errorf("%d frames wedged in queue", link.QueuedFrames())
	}
}

// TestPerFlowQueuedBytesExact: QueuedBytes is built from per-flow
// counters that reset to exact zero as each flow drains, so emptiness
// checks cannot be defeated by float residue even while other flows stay
// backlogged (the old implementation only reset on a fully empty link).
func TestPerFlowQueuedBytesExact(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	for f := 1; f <= 2; f++ {
		if err := s.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(1000), sink)
	// Sizes chosen to accumulate binary-fraction residue (0.1 + 0.2 != 0.3).
	q.At(0, func() {
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 0.1})
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 0.2})
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 0.3})
		for i := 0; i < 50; i++ {
			link.Deliver(&sim.Frame{Flow: 2, Bytes: 33.34})
		}
	})
	// After 0.05 s flow 1 (0.6 B total) has fully drained — its three tiny
	// packets interleave with at most one 33.34 B flow-2 packet — while
	// flow 2 remains backlogged.
	q.RunUntil(0.05)
	if got := link.FlowQueuedBytes(1); got != 0 {
		t.Errorf("flow 1 queued = %v after drain, want exact 0", got)
	}
	if link.FlowQueuedBytes(2) == 0 {
		t.Error("flow 2 should still be backlogged")
	}
	q.Run()
	if got := link.QueuedBytes(); got != 0 {
		t.Errorf("link queued = %v after full drain, want exact 0", got)
	}
}

// TestForgetFlowBoundsState: removing a flow and telling the link to
// forget it releases the per-flow sequence/queue counters; a busy flow is
// not forgotten.
func TestForgetFlowBoundsState(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(1000), sink)
	for f := 1; f <= 100; f++ {
		f := f
		if err := s.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
		q.At(0, func() { link.Deliver(&sim.Frame{Flow: f, Bytes: 10}) })
	}
	q.At(0.0001, func() {
		// Flow 1 may be mid-service but its queue entry is gone; a flow
		// with queued frames must be refused.
		if link.FlowQueuedBytes(2) == 0 {
			t.Error("expected flow 2 still queued this early")
		}
		link.ForgetFlow(2) // still queued: must be a no-op
		if link.FlowQueuedBytes(2) == 0 {
			t.Error("ForgetFlow dropped a backlogged flow's accounting")
		}
	})
	q.Run()
	for f := 1; f <= 100; f++ {
		if err := s.RemoveFlow(f); err != nil {
			t.Fatal(err)
		}
		link.ForgetFlow(f)
	}
	// Deliver on a forgotten flow: scheduler rejects, counted drop, and the
	// seq chain restarts cleanly if the flow is re-added.
	q.At(q.Now()+1, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 10}) })
	q.Run()
	if got := link.DropsFor(sim.DropEnqueueRejected); got != 1 {
		t.Errorf("drop after removal = %d, want 1", got)
	}
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	q.At(q.Now()+1, func() { link.Deliver(&sim.Frame{Flow: 1, Bytes: 10}) })
	q.Run()
	if sink.Count(1) != 2 {
		t.Errorf("flow 1 delivered %d, want 2 (one before churn, one after re-add)", sink.Count(1))
	}
}

// TestLinkFailLeavesNoTombstones pins the handle-based cancellation
// contract: Fail cancels the pending completion event outright, so the
// event queue holds no stale ("tombstone") events afterwards — Len counts
// only genuinely pending work. Under the old epoch scheme the cancelled
// completion stayed queued and fired as a no-op.
func TestLinkFailLeavesNoTombstones(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(100), sink)

	q.At(0, func() {
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) // in service 0..1
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 100}) // queued
	})
	q.At(0.4, func() {
		// Pending now: this link's completion (t=1), Fail (t=0.5),
		// Recover (t=3), and the final audit event (t=10).
		if got := q.Len(); got != 4 {
			t.Errorf("Len before Fail = %d, want 4", got)
		}
	})
	q.At(0.5, func() {
		link.Fail()
		// The completion event must be gone, not tombstoned: only
		// Recover (t=3) and the audit event (t=10) remain.
		if got := q.Len(); got != 2 {
			t.Errorf("Len after Fail = %d, want 2 (completion cancelled, not tombstoned)", got)
		}
	})
	q.At(3, link.Recover)
	steps := uint64(0)
	q.At(10, func() { steps = q.Steps() })
	q.Run()

	// Exactly 7 events ever fire: the 4 At callbacks above plus the
	// completion of frame 2 (service 3..4), its zero-delay handoff is
	// inline, and... enumerate: t=0 setup, t=0.4 check, t=0.5 fail,
	// t=3 recover (restarts service), t=4 completion, t=10 audit. The
	// cancelled completion never fires, so Steps counts 6 by t=10.
	if steps != 6 {
		t.Errorf("Steps = %d, want 6 (cancelled completion must not fire)", steps)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after Run, want 0", q.Len())
	}
	if sink.Count(1) != 1 || link.DropsFor(sim.DropLinkDown) != 1 {
		t.Errorf("delivered %d / link-down drops %d, want 1/1",
			sink.Count(1), link.DropsFor(sim.DropLinkDown))
	}
}

// TestLinkFailRecoverByteExactAccounting: across repeated outages, every
// offered byte lands in exactly one bucket — delivered, dropped, or still
// queued — with no float residue, even with binary-fraction frame sizes.
// Drop bytes are accumulated through OnDrop, which sees the exact frame.
func TestLinkFailRecoverByteExactAccounting(t *testing.T) {
	q := &eventq.Queue{}
	s := core.New()
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 1); err != nil {
		t.Fatal(err)
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "l", s, server.NewConstantRate(1), sink)
	// Per-frame disposition: every offered frame must end up delivered or
	// dropped, exactly once, with its Bytes intact. Summing the surviving
	// bytes in the original send order makes the conservation check exact
	// (bit-identical), with no float reassociation slack.
	const (
		stDelivered = 1
		stDropped   = 2
	)
	status := map[*sim.Frame]int{}
	dropsByCause := map[sim.DropCause]int{}
	link.OnDrop = func(f *sim.Frame, cause sim.DropCause) {
		if status[f] != 0 {
			t.Errorf("frame %p dropped after already accounted (status %d)", f, status[f])
		}
		status[f] = stDropped
		dropsByCause[cause]++
	}
	sink.OnReceive = func(f *sim.Frame, _ float64) {
		if status[f] != 0 {
			t.Errorf("frame %p delivered after already accounted (status %d)", f, status[f])
		}
		status[f] = stDelivered
	}

	var frames []*sim.Frame
	sizes := []float64{0.1, 0.2, 0.3, 33.34, 0.7}
	for i := 0; i < 40; i++ {
		f := &sim.Frame{Flow: 1 + i%2, Bytes: sizes[i%len(sizes)]}
		frames = append(frames, f)
		q.At(float64(i)*0.8, func() { link.Deliver(f) })
	}
	// Three outages, each cutting down a transmission in flight.
	for _, tt := range []float64{5.3, 14.7, 26.1} {
		tt := tt
		q.At(tt, link.Fail)
		q.At(tt+2, link.Recover)
	}
	q.Run()

	if link.QueuedBytes() != 0 {
		t.Errorf("residual queued bytes %v, want exact 0", link.QueuedBytes())
	}
	var offered, accounted, deliveredBytes float64
	for _, f := range frames {
		offered += f.Bytes
		switch status[f] {
		case stDelivered:
			accounted += f.Bytes
			deliveredBytes += f.Bytes
		case stDropped:
			accounted += f.Bytes
		default:
			t.Errorf("frame %+v neither delivered nor dropped", f)
		}
	}
	if accounted != offered {
		t.Errorf("byte conservation: accounted %v, offered %v (diff %v)",
			accounted, offered, accounted-offered)
	}
	// The sink's own per-flow byte counters agree with the per-frame view
	// (same frames, so the sums can only differ by summation order — pin
	// them approximately; the exact claim is the per-frame one above).
	if got := sink.Bytes(1) + sink.Bytes(2); math.Abs(got-deliveredBytes) > 1e-9 {
		t.Errorf("sink bytes %v vs per-frame delivered %v", got, deliveredBytes)
	}
	if dropsByCause[sim.DropLinkDown] != 3 {
		t.Errorf("link-down drops = %d, want 3 (one per outage)", dropsByCause[sim.DropLinkDown])
	}
	if int(link.Drops()) != dropsByCause[sim.DropLinkDown] {
		t.Errorf("Drops() = %d disagrees with OnDrop count %d", link.Drops(), dropsByCause[sim.DropLinkDown])
	}
	// And no tombstones linger after the final drain.
	if q.Len() != 0 {
		t.Errorf("Len = %d after Run, want 0", q.Len())
	}
}

// TestDropsUnderOverloadAllSchedulers: sustained 3x overload with a tiny
// buffer; every scheduler must keep the link fully utilized and drop the
// excess without bookkeeping drift.
func TestDropsUnderOverloadAllSchedulers(t *testing.T) {
	mks := map[string]func() sched.Interface{
		// SFQ through the flow core's own constructor and through the
		// registry (its name "flowsfq" is retired).
		"SFQ":     func() sched.Interface { return core.New() },
		"FlowSFQ": func() sched.Interface { return sched.MustNew("sfq") },
		"SCFQ":    func() sched.Interface { return sched.MustNew("scfq") },
		"WFQ":     func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(1000)) },
		"DRR":     func() sched.Interface { return sched.MustNew("drr", sched.WithQuantum(500)) },
		"FIFO":    func() sched.Interface { return sched.MustNew("fifo") },
		"FA":      func() sched.Interface { return sched.MustNew("fairairport") },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			q := &eventq.Queue{}
			s := mk()
			for f := 1; f <= 2; f++ {
				if err := s.AddFlow(f, 500); err != nil {
					t.Fatal(err)
				}
			}
			sink := sim.NewSink(q)
			link := sim.NewLink(q, "l", s, server.NewConstantRate(1000), sink)
			link.BufferBytes = 500
			sent := 0
			for i := 0; i < 300; i++ {
				i := i
				q.At(float64(i)*0.0333, func() {
					link.Deliver(&sim.Frame{Flow: 1 + i%2, Bytes: 100})
				})
				sent++
			}
			q.Run()
			got := sink.Count(1) + sink.Count(2)
			if got+link.Drops() != int64(sent) {
				t.Errorf("conservation: delivered %d + dropped %d != sent %d",
					got, link.Drops(), sent)
			}
			if link.Drops() == 0 {
				t.Error("3x overload with a 5-packet buffer must drop")
			}
			// Work conservation: ~10 s of input at 3x load keeps the link
			// busy essentially the whole horizon.
			util := float64(got) * 100 / 1000 / q.Now()
			if util < 0.9 {
				t.Errorf("utilization = %v under overload", util)
			}
		})
	}
}
