package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eventq"
	_ "repro/internal/hier" // resolves the hier:<spec> names
	"repro/internal/liveops"
	"repro/internal/obs"
	_ "repro/internal/pifo" // registers pifo-sfq and lstf
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
)

// The ladder pushes one fixed load — ladderFlows backlogged flows, weights
// (f%7+1)*100, ladderPkt-byte packets, ladderStanding packets standing per
// flow — through each rung of the stack, so the record shows what each
// layer adds to the one below it. Where the benchmark cannot decorate a
// layer (the event queue, the shard lock, the admitter) this difference is
// the layer's cost. Every figure is the median of ladderReps equal trials
// after a discarded warm-up trial.
const (
	ladderFlows    = 256
	ladderPkt      = 500.0
	ladderStanding = 4
	ladderReps     = 9
)

func ladderWeight(f int) float64 { return float64(f%7+1) * 100 }

// rung is one measured step of the ladder.
type rung struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	// DeltaNs is NsOp minus the rung below (the one named in Below).
	Below   string  `json:"below,omitempty"`
	DeltaNs float64 `json:"delta_ns"`
}

// disciplineLoop returns one trial of n enqueue+dequeue pairs on s, every
// arrival going to the flow just served so the backlog stands still.
func disciplineLoop(s sched.Interface, n int) (func(), error) {
	for f := 0; f < ladderFlows; f++ {
		if err := s.AddFlow(f, ladderWeight(f)); err != nil {
			return nil, err
		}
	}
	var pool sched.PacketPool
	now := 0.0
	for i := 0; i < ladderStanding; i++ {
		for f := 0; f < ladderFlows; f++ {
			p := pool.Get()
			p.Flow, p.Length = f, ladderPkt
			if err := s.Enqueue(now, p); err != nil {
				return nil, err
			}
		}
	}
	next := 0
	return func() {
		for i := 0; i < n; i++ {
			now += clockStep
			p := pool.Get()
			p.Flow, p.Length = next, ladderPkt
			if err := s.Enqueue(now, p); err != nil {
				panic(err) // a registered flow, a positive length, a rising clock
			}
			out, _ := s.Dequeue(now)
			next = out.Flow
			pool.Put(out)
		}
	}, nil
}

// flowSetLoop is the bottom rung: sched.FlowSet alone, keyed by a per-flow
// finish-tag chain computed here (no flow table, no virtual time).
func flowSetLoop(n int) (func(), error) {
	var fs sched.FlowSet
	var pool sched.PacketPool
	tags := make([]float64, ladderFlows)
	push := func(f int) {
		p := pool.Get()
		p.Flow, p.Length = f, ladderPkt
		fs.Push(f, tags[f], 0, p)
		tags[f] += ladderPkt / ladderWeight(f)
	}
	for i := 0; i < ladderStanding; i++ {
		for f := 0; f < ladderFlows; f++ {
			push(f)
		}
	}
	next := 0
	return func() {
		for i := 0; i < n; i++ {
			push(next)
			out := fs.PopMin()
			next = out.Flow
			pool.Put(out)
		}
	}, nil
}

// linkLoop is the sim.Link + eventq rung: the same backlog held in a link
// whose downstream consumer sends every departed frame straight back in, n
// transmissions per trial. attach may hang a monitor or an observer on the
// link before traffic starts.
func linkLoop(n int, attach func(*sim.Link)) (func(), error) {
	q := &eventq.Queue{}
	var link *sim.Link
	left := 0
	back := sim.ConsumerFunc(func(f *sim.Frame) {
		if left > 0 {
			left--
			link.Deliver(f)
		}
	})
	link = sim.NewLink(q, "ladder", core.New(), server.NewConstantRate(1e9), back)
	for f := 0; f < ladderFlows; f++ {
		if err := link.Scheduler().AddFlow(f, ladderWeight(f)); err != nil {
			return nil, err
		}
	}
	if attach != nil {
		attach(link)
	}
	frames := make([]*sim.Frame, 0, ladderFlows*ladderStanding)
	for i := 0; i < ladderStanding; i++ {
		for f := 0; f < ladderFlows; f++ {
			frames = append(frames, &sim.Frame{Flow: f, Bytes: ladderPkt})
		}
	}
	return func() {
		// Each trial refills the link and lets n frames go round; the
		// backlog drains at the end of the trial, inside the timed region.
		left = n - len(frames)
		for _, f := range frames {
			link.Deliver(f)
		}
		q.Run()
	}, nil
}

// runtimeLoop is the rt.Runtime rung: one shard, the wall clock, enqueue and
// dequeue from the same goroutine, so the shard lock is taken and never
// contended.
func runtimeLoop(n int) (func(), error) {
	r, err := rt.New("sfq", sched.WithClock(rt.WallClock()))
	if err != nil {
		return nil, err
	}
	var pool sched.PacketPool
	for f := 0; f < ladderFlows; f++ {
		if err := r.AddFlow(f, ladderWeight(f)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < ladderStanding; i++ {
		for f := 0; f < ladderFlows; f++ {
			p := pool.Get()
			p.Flow, p.Length = f, ladderPkt
			if err := r.Enqueue(p); err != nil {
				return nil, err
			}
		}
	}
	next := 0
	return func() {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Flow, p.Length = next, ladderPkt
			if err := r.Enqueue(p); err != nil {
				panic(err)
			}
			out, _ := r.DequeueShard(0)
			next = out.Flow
			pool.Put(out)
		}
	}, nil
}

// dispatchProbe tells the admitter rung which ticket a Finish dispatched:
// the admitter pops it from the runtime, and the runtime shows every
// dequeued packet to its probe.
type dispatchProbe struct {
	sched.NopProbe
	last *rt.Ticket
}

func (d *dispatchProbe) OnDequeue(_ float64, p *sched.Packet) { d.last, _ = p.Payload.(*rt.Ticket) }

// admitterLoop is the top rung: an rt.Admitter with one seat over the same
// runtime; an operation finishes the running request (which dispatches the
// next in fair order) and submits a new one for the flow that finished.
func admitterLoop(n int) (func(), error) {
	r, err := rt.New("sfq", sched.WithClock(rt.WallClock()))
	if err != nil {
		return nil, err
	}
	a, err := rt.NewAdmitter(rt.AdmitterConfig{Runtime: r, Limit: 1})
	if err != nil {
		return nil, err
	}
	probe := &dispatchProbe{}
	r.SetProbe(probe)
	for f := 0; f < ladderFlows; f++ {
		if err := r.AddFlow(f, ladderWeight(f)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < ladderStanding; i++ {
		for f := 0; f < ladderFlows; f++ {
			if _, err := a.Submit(f, ladderPkt); err != nil {
				return nil, err
			}
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			cur := probe.last
			if err := cur.Finish(); err != nil {
				panic(err)
			}
			if _, err := a.Submit(cur.Flow(), ladderPkt); err != nil {
				panic(err)
			}
		}
	}, nil
}

// runLadder measures every rung and stores the per-layer metrics the rungs
// stand for in out. n is the operations per trial, reps the timed trials per
// rung.
func runLadder(n, reps int, out map[string]float64) ([]rung, error) {
	byName := func(name string, opts ...sched.Option) func() (func(), error) {
		return func() (func(), error) {
			s, err := sched.New(name, opts...)
			if err != nil {
				return nil, err
			}
			return disciplineLoop(s, n)
		}
	}
	link := func(attach func(*sim.Link)) func() (func(), error) {
		return func() (func(), error) { return linkLoop(n, attach) }
	}
	steps := []struct {
		name, below string
		// metric receives the rung's ns/op, deltaMetric its difference from
		// the rung below; a discipline rung's allocs/op count towards
		// sched.allocs_op.
		metric, deltaMetric string
		discipline          bool
		mk                  func() (func(), error)
	}{
		{"sched.FlowSet", "", "sched.flowset_ns_op", "", true, func() (func(), error) { return flowSetLoop(n) }},
		{"core.New()", "sched.FlowSet", "core.sfq_ns_op", "", true, func() (func(), error) { return disciplineLoop(core.New(), n) }},
		{"pifo-sfq", "core.New()", "pifo.sfq_ns_op", "", true, byName("pifo-sfq")},
		{"hier:sfq(sfq)", "core.New()", "hier.depth1_ns_op", "", true, byName("hier:sfq(sfq)")},
		{"hier:sfq(sfq(sfq(sfq)))", "hier:sfq(sfq)", "hier.depth3_ns_op", "", true, byName("hier:sfq(sfq(sfq(sfq)))")},
		{"sim.Link + eventq", "core.New()", "sim.link_ns_pkt", "", false, link(nil)},
		{"sim.Link + obs.Observe", "sim.Link + eventq", "", "obs.observer_ns_pkt", false, link(func(l *sim.Link) { obs.Observe(l) })},
		{"sim.Link + sim.MonitorAll", "sim.Link + eventq", "", "sim.monitor_ns_pkt", false, link(func(l *sim.Link) { sim.MonitorAll(l) })},
		{"rt.Runtime 1 shard", "core.New()", "rt.s1_ns_op", "", false, func() (func(), error) { return runtimeLoop(n) }},
		{"rt.Admitter 1 seat", "rt.Runtime 1 shard", "rt.admit_ns_op", "", false, func() (func(), error) { return admitterLoop(n) }},
		// Side rungs: the other disciplines on the same load.
		{"scfq", "core.New()", "sched.scfq_ns_op", "", true, byName("scfq")},
		{"wfq", "core.New()", "sched.wfq_ns_op", "", true, byName("wfq", sched.WithAssumedCapacity(1e6))},
		{"drr", "core.New()", "sched.drr_ns_op", "", true, byName("drr")},
		{"lstf", "pifo-sfq", "pifo.lstf_ns_op", "", true, byName("lstf")},
		{"hier:sfq(drr,edd)", "hier:sfq(sfq)", "hier.composed_ns_op", "", true, byName("hier:sfq(drr,edd)")},
	}
	rungs := make([]rung, 0, len(steps))
	ns := make(map[string]float64)
	worstAllocs := 0.0
	for _, st := range steps {
		fn, err := st.mk()
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", st.name, err)
		}
		r := rung{Name: st.name, Below: st.below}
		r.NsOp, r.AllocsOp = timeTrials(reps, n, fn)
		ns[st.name] = r.NsOp
		if st.below != "" {
			r.DeltaNs = r.NsOp - ns[st.below]
		}
		if st.metric != "" {
			out[st.metric] = r.NsOp
		}
		if st.deltaMetric != "" {
			out[st.deltaMetric] = r.DeltaNs
		}
		if st.discipline {
			worstAllocs = math.Max(worstAllocs, r.AllocsOp)
		}
		rungs = append(rungs, r)
	}
	out["sched.allocs_op"] = worstAllocs
	return rungs, nil
}

// probeEventq measures the event queue on its own at a steady pending count:
// op is timed n times per trial with an event horizon that keeps the count
// where it is.
func probeEventq(pending, n int, op func(q *eventq.Queue, horizon float64)) float64 {
	var q eventq.Queue
	horizon := float64(pending) * 1e-6
	for i := 0; i < pending; i++ {
		q.AtCall(float64(i)*1e-6, eventTick, nil)
	}
	ns, _ := timeTrials(ladderReps, n, func() {
		for i := 0; i < n; i++ {
			op(&q, horizon)
		}
	})
	return ns
}

func eventTick(any) {}

// scheduleAndStep schedules one event a full horizon out and executes the
// earliest; scheduleAndCancel schedules one and cancels it through its handle.
func scheduleAndStep(q *eventq.Queue, horizon float64) {
	q.AtCall(q.Now()+horizon, eventTick, nil)
	q.Step()
}

func scheduleAndCancel(q *eventq.Queue, horizon float64) {
	q.Cancel(q.Schedule(q.Now()+horizon, eventTick, nil))
}

// probeEventqNewBytes is the heap a fresh queue takes for its first event —
// what every short simulation pays per queue.
func probeEventqNewBytes() float64 {
	const queues = 64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < queues; i++ {
		q := &eventq.Queue{}
		q.AtCall(1, eventTick, nil)
		q.Step()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-before) / queues
}

// probePoisson is the cost of one generated packet: ladderFlows Poisson
// sources on one queue feeding a consumer that does nothing.
func probePoisson(n int) float64 {
	per := make([]float64, ladderReps+1)
	for r := range per {
		q := &eventq.Queue{}
		count := 0
		sink := sim.ConsumerFunc(func(*sim.Frame) { count++ })
		const rate = 1e6 // bytes/s per source
		stop := float64(n) * ladderPkt / (rate * ladderFlows)
		for f := 0; f < ladderFlows; f++ {
			(&source.Poisson{Q: q, Out: sink, Flow: f, Rate: rate, PktBytes: ladderPkt,
				Stop: stop, Rng: rand.New(rand.NewSource(int64(f + 1)))}).Run()
		}
		t0 := time.Now()
		q.Run()
		per[r] = float64(time.Since(t0).Nanoseconds()) / math.Max(1, float64(count))
	}
	return median(per[1:])
}

// probeServer is one Finish call on the constant-rate process, through the
// interface as a link calls it.
func probeServer(n int) float64 {
	var proc server.Process = server.NewConstantRate(1e9)
	now := 0.0
	ns, _ := timeTrials(ladderReps, n, func() {
		for i := 0; i < n; i++ {
			now = proc.Finish(now, ladderPkt)
		}
	})
	if math.IsNaN(now) {
		panic("server.Finish returned NaN")
	}
	return ns
}

// probeLiveops snapshots and restores an SFQ holding flows x perFlow
// packets, the state the sched-backlogged workload stands in.
func probeLiveops(tk *track, flows, perFlow int) (snapMs, restoreMs float64, err error) {
	s := core.New()
	for f := 0; f < flows; f++ {
		if err := s.AddFlow(f, ladderWeight(f)); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < perFlow; i++ {
		for f := 0; f < flows; f++ {
			if err := s.Enqueue(0, &sched.Packet{Flow: f, Length: ladderPkt}); err != nil {
				return 0, 0, err
			}
		}
	}
	const reps = 5
	snaps, restores := make([]float64, reps), make([]float64, reps)
	for r := 0; r < reps; r++ {
		tk.begin(spSnapshot)
		data, err := liveops.Snapshot(s)
		snaps[r] = float64(tk.end().Nanoseconds()) / 1e6
		if err != nil {
			return 0, 0, err
		}
		fresh := core.New()
		tk.begin(spRestore)
		err = liveops.Restore(data, fresh)
		restores[r] = float64(tk.end().Nanoseconds()) / 1e6
		if err != nil {
			return 0, 0, err
		}
		if fresh.Len() != s.Len() {
			return 0, 0, fmt.Errorf("liveops: restored %d packets of %d", fresh.Len(), s.Len())
		}
	}
	return median(snaps), median(restores), nil
}

// runProbes measures every workload-independent per-layer figure: the
// ladder, the event queue, the sources, the server process, liveops.
func runProbes(e *env, tk *track, out map[string]float64) ([]rung, error) {
	n := e.pick(20_000, 2_000)
	rungs, err := runLadder(n, e.pick(ladderReps, 3), out)
	if err != nil {
		return nil, err
	}
	out["eventq.ns_op_p16"] = probeEventq(16, n, scheduleAndStep)
	out["eventq.ns_op_p4096"] = probeEventq(4096, n, scheduleAndStep)
	out["eventq.ns_op_p1m"] = probeEventq(e.pick(1_000_000, 20_000), n, scheduleAndStep)
	out["eventq.cancel_ns_p4096"] = probeEventq(4096, n, scheduleAndCancel)
	out["eventq.new_bytes"] = probeEventqNewBytes()
	out["source.poisson_ns_pkt"] = probePoisson(n)
	out["server.finish_ns"] = probeServer(n)
	snap, restore, err := probeLiveops(tk, e.pick(schedFlows, 128), schedStanding)
	if err != nil {
		return nil, err
	}
	out["liveops.snapshot_ms"], out["liveops.restore_ms"] = snap, restore
	return rungs, nil
}
