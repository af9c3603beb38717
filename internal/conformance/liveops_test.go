package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fairness"
	"repro/internal/hier"
	"repro/internal/liveops"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
	"repro/internal/sim"
)

// liveopsSeeds is the per-(sut, regime) seed count of the failover matrix.
// Each cell snapshots a running link at a random event and requires the
// restored replica to finish the schedule bit-identically.
const liveopsSeeds = 4

// traceEqual requires two runs to have produced the same operation log:
// the same accepted arrivals and the same service order, packet for
// packet, timestamp for timestamp.
func traceEqual(want, got *Trace) error {
	if len(want.Enq) != len(got.Enq) {
		return fmt.Errorf("accepted %d arrivals, baseline accepted %d", len(got.Enq), len(want.Enq))
	}
	if len(want.Deq) != len(got.Deq) {
		return fmt.Errorf("served %d packets, baseline served %d", len(got.Deq), len(want.Deq))
	}
	for i := range want.Deq {
		a, b := got.Deq[i], want.Deq[i]
		if a.P.Flow != b.P.Flow || a.P.Seq != b.P.Seq || a.P.Length != b.P.Length || a.Now != b.Now {
			return fmt.Errorf("dequeue %d is flow %d seq %d (%v B) at %v; baseline flow %d seq %d (%v B) at %v",
				i, a.P.Flow, a.P.Seq, a.P.Length, a.Now, b.P.Flow, b.P.Seq, b.P.Length, b.Now)
		}
	}
	return nil
}

// monitorEqual requires identical transmission records — the link-level
// view of bit-identity (start/end instants included).
func monitorEqual(want, got *sim.Monitor) error {
	w, g := want.ServiceRecords(), got.ServiceRecords()
	if len(w) != len(g) {
		return fmt.Errorf("%d transmissions, baseline %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			return fmt.Errorf("transmission %d = %+v, baseline %+v", i, g[i], w[i])
		}
	}
	return nil
}

// failoverSwapper wraps a fresh scheduler for the sut with a one-shot
// kill-and-restore at operation k.
func failoverSwapper(s sut, w Workload, k uint64) *liveops.Swapper {
	return liveops.NewSwapper(s.make(w), liveops.Action{
		AtOp: k,
		Do:   liveops.SnapshotRestore(func() sched.Interface { return s.make(w) }),
	})
}

// checkFired fails the run unless the swapper's action completed.
func checkFired(sw *liveops.Swapper, k uint64) error {
	if sw.Err != nil {
		return fmt.Errorf("failover at op %d: %w", k, sw.Err)
	}
	if sw.Ops() < k {
		return fmt.Errorf("failover at op %d never fired (%d ops)", k, sw.Ops())
	}
	return nil
}

// failoverHealthy replays one seeded workload twice — bare, and through a
// swapper that snapshots the scheduler at a random event and restores it
// into a fresh instance — and requires identical traces and transmissions.
func failoverHealthy(s sut, seed int64, wide bool) error {
	rng := rand.New(rand.NewSource(seed))
	kind := s.kinds[int(seed)%len(s.kinds)]
	var w Workload
	if wide {
		w = RandomWide(rng, kind, pktsPerFlow, 8+rng.Intn(8))
	} else {
		w = Random(rng, kind, pktsPerFlow)
	}
	base, bres, err := Run(s.make(w), w, nil)
	if err != nil {
		return err
	}
	total := len(base.Enq) + len(base.Deq)
	if total == 0 {
		return nil
	}
	k := uint64(1 + rng.Intn(total))
	sw := failoverSwapper(s, w, k)
	tr, res, err := Run(sw, w, nil)
	if err != nil {
		return err
	}
	if err := checkFired(sw, k); err != nil {
		return err
	}
	if err := traceEqual(base, tr); err != nil {
		return fmt.Errorf("failover at op %d: %w", k, err)
	}
	if err := monitorEqual(bres.Mon, res.Mon); err != nil {
		return fmt.Errorf("failover at op %d: %w", k, err)
	}
	return nil
}

// failoverChaos is failoverHealthy under a seeded fault plan: the snapshot
// lands somewhere among server stalls, link outages, and downstream loss,
// and the chaos digest (dequeues, drop buckets, sink totals) must match
// the undisturbed run exactly.
func failoverChaos(s sut, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	kind := s.kinds[int(seed)%len(s.kinds)]
	w := Random(rng, kind, pktsPerFlow)
	plan := RandomFaultPlan(rng, ChaosHorizon(w))
	base, err := ChaosRun(s.make(w), w, plan)
	if err != nil {
		return err
	}
	if err := CheckChaosConservation(base, w); err != nil {
		return err
	}
	total := len(base.Trace.Enq) + len(base.Trace.Deq)
	if total == 0 {
		return nil
	}
	k := uint64(1 + rng.Intn(total))
	sw := failoverSwapper(s, w, k)
	res, err := ChaosRun(sw, w, plan)
	if err != nil {
		return err
	}
	if err := checkFired(sw, k); err != nil {
		return err
	}
	if err := CheckChaosConservation(res, w); err != nil {
		return fmt.Errorf("failover at op %d: %w", k, err)
	}
	if b, g := base.Digest(w), res.Digest(w); b != g {
		return fmt.Errorf("failover at op %d: chaos digest diverged\nbaseline:\n%s\nfailover:\n%s", k, b, g)
	}
	return nil
}

// TestSnapshotFailoverMatrix pins the failover guarantee for every
// discipline in the conformance table, in all three regimes: a link
// snapshotted at an arbitrary event and restored into a fresh scheduler
// continues the schedule bit-identically — same service order, same
// timestamps, same drop accounting under chaos.
func TestSnapshotFailoverMatrix(t *testing.T) {
	for _, s := range suts() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < liveopsSeeds; seed++ {
				if err := failoverHealthy(s, seed, false); err != nil {
					t.Fatalf("healthy seed %d: %v", seed, err)
				}
				if err := failoverChaos(s, seed); err != nil {
					t.Fatalf("chaos seed %d: %v", seed, err)
				}
			}
			for seed := int64(0); seed < 2; seed++ {
				if err := failoverHealthy(s, seed, true); err != nil {
					t.Fatalf("wide seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestSnapshotFailoverEveryOp sweeps the failover point across EVERY
// operation of one SFQ run — busy-period boundaries, first and last ops
// included — so no event offset hides a restore bug.
func TestSnapshotFailoverEveryOp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := Random(rng, Sporadic, pktsPerFlow)
	s := suts()[0] // sfq
	base, bres, err := Run(s.make(w), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := len(base.Enq) + len(base.Deq)
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for k := 1; k <= total; k += stride {
		sw := failoverSwapper(s, w, uint64(k))
		tr, res, err := Run(sw, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFired(sw, uint64(k)); err != nil {
			t.Fatal(err)
		}
		if err := traceEqual(base, tr); err != nil {
			t.Fatalf("failover at op %d: %v", k, err)
		}
		if err := monitorEqual(bres.Mon, res.Mon); err != nil {
			t.Fatalf("failover at op %d: %v", k, err)
		}
	}
}

// liveWeightWorkload keeps two flows continuously backlogged long past the
// mutation point: 100-byte packets paced at twice the per-flow fair share,
// so the backlog grows through the arrival phase and drains afterwards.
func liveWeightWorkload() Workload {
	const c = 1e4
	flows := []schedtest.FlowSpec{
		{Flow: 1, Weight: 2000, MaxBytes: 100},
		{Flow: 2, Weight: 6000, MaxBytes: 100},
	}
	var arr []schedtest.Arrival
	for _, f := range flows {
		for i := 0; i < 150; i++ {
			arr = append(arr, schedtest.Arrival{At: float64(i) * 0.008, Flow: f.Flow, Bytes: 100})
		}
	}
	return Workload{Flows: flows, Arrivals: arr, C: c, Kind: Sporadic}
}

// TestSetWeightMidWorkload reconfigures a running scheduler — the two
// flows swap weights mid-backlog — and re-checks the invariants: the full
// trace still conserves packets, preserves per-flow FIFO, and stays
// work-conserving, and once the pre-mutation backlog has drained the
// fairness measure over the suffix obeys the SFQ bound AT THE NEW WEIGHTS.
// Theorem 1 holds for any server, so a weight change never needs a queue
// flush — this is the conformance statement of that claim.
func TestSetWeightMidWorkload(t *testing.T) {
	fair := map[string]bool{"sfq": true, "flowsfq": true, "scfq": true, "pifo-sfq": true, "pifo-scfq": true}
	for _, name := range []string{"sfq", "flowsfq", "scfq", "vclock", "pifo-sfq", "pifo-scfq", "lstf", "hsfq"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := liveWeightWorkload()
			tMut := math.NaN()
			sw := liveops.NewSwapper(sched.MustNew(sutRegistryName(name)), liveops.Action{
				AtOp: 100,
				Do: func(now float64, inner sched.Interface) (sched.Interface, error) {
					rc, ok := inner.(sched.Reconfigurable)
					if !ok {
						return nil, fmt.Errorf("%T is not Reconfigurable", inner)
					}
					if err := rc.SetWeight(1, 6000); err != nil {
						return nil, err
					}
					if err := rc.SetWeight(2, 2000); err != nil {
						return nil, err
					}
					tMut = now
					return inner, nil
				},
			})
			tr, res, err := Run(sw, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sw.Err != nil {
				t.Fatal(sw.Err)
			}
			if math.IsNaN(tMut) {
				t.Fatal("mutation never fired")
			}
			if err := CheckConservation(tr, sw, w); err != nil {
				t.Fatal(err)
			}
			if err := CheckPerFlowFIFO(tr); err != nil {
				t.Fatal(err)
			}
			if err := CheckWorkConserving(tr, res.Mon); err != nil {
				t.Fatal(err)
			}
			if !fair[name] {
				return
			}
			// The clean suffix starts once every packet enqueued before the
			// mutation (tagged at the old weights) has been transmitted.
			enqAt := make(map[*sched.Packet]float64, len(tr.Enq))
			for _, st := range tr.Enq {
				enqAt[st.P] = st.Now
			}
			tClean := tMut
			recs := res.Mon.ServiceRecords()
			for i, st := range tr.Deq {
				if enqAt[st.P] <= tMut && recs[i].End > tClean {
					tClean = recs[i].End
				}
			}
			clip := func(iv []sim.Interval) []sim.Interval {
				var out []sim.Interval
				for _, v := range iv {
					if v.End <= tClean {
						continue
					}
					if v.Start < tClean {
						v.Start = tClean
					}
					out = append(out, v)
				}
				return out
			}
			f1 := clip(res.Mon.BackloggedIntervals(1))
			f2 := clip(res.Mon.BackloggedIntervals(2))
			joint := fairness.Intersect(f1, f2)
			span := 0.0
			for _, v := range joint {
				span += v.End - v.Start
			}
			if span < 0.5 {
				t.Fatalf("only %.3fs jointly backlogged after the old backlog drained at %.3fs; suffix check is vacuous", span, tClean)
			}
			// New weights: flow 1 now at 6000, flow 2 at 2000. A flow whose
			// tag chain crossed the mutation keeps a residual offset of up to
			// one OLD-weight packet span (S continues from the last old
			// finish tag and the offset persists while the flow stays
			// backlogged), so the suffix bound is Theorem 1 at the new
			// weights plus one old-spacing term per flow.
			h := fairness.MaxUnfairness(res.Mon.ServiceRecords(), f1, f2, 1, 2, 6000, 2000)
			bound := qos.SFQFairnessBound(100, 6000, 100, 2000) + 100.0/2000 + 100.0/6000
			if h > bound+1e-9 {
				t.Fatalf("post-mutation unfairness %v exceeds bound %v at the new weights", h, bound)
			}
		})
	}
}

// hotSwap is a Swapper action that changes discipline without a snapshot:
// it registers the inner scheduler's flows on a fresh one built by mk and
// moves the backlog across in service order, as fresh arrivals at the
// swap instant, so the new discipline retags every queued packet.
func hotSwap(mk func() sched.Interface) func(float64, sched.Interface) (sched.Interface, error) {
	return func(now float64, src sched.Interface) (sched.Interface, error) {
		fl, ok := src.(sched.FlowLister)
		if !ok {
			return nil, fmt.Errorf("%T cannot enumerate flows", src)
		}
		dst := mk()
		for _, info := range fl.ListFlows() {
			if err := dst.AddFlow(info.Flow, info.Weight); err != nil {
				return nil, err
			}
		}
		for {
			p, ok := src.Dequeue(now)
			if !ok {
				return dst, nil
			}
			if err := dst.Enqueue(now, p); err != nil {
				return nil, err
			}
		}
	}
}

// TestHotSwapMidWorkload hot-swaps the discipline under a live link — SFQ
// to LSTF, the pin from the programmable-scheduling layer — and requires
// the combined trace to stay conservative, per-flow FIFO, and
// work-conserving: the backlog is retagged, never dropped or reordered
// within a flow, and the link never idles across the swap.
func TestHotSwapMidWorkload(t *testing.T) {
	for _, tc := range []struct{ from, to string }{
		{"sfq", "lstf"},
		{"sfq", "pifo-scfq"}, // a retired name: the swap is to scfq
		{"scfq", "sfq"},
	} {
		tc := tc
		t.Run(tc.from+"->"+tc.to, func(t *testing.T) {
			t.Parallel()
			w := liveWeightWorkload()
			to := sutRegistryName(tc.to)
			sw := liveops.NewSwapper(sched.MustNew(tc.from), liveops.Action{
				AtOp: 100,
				Do:   hotSwap(func() sched.Interface { return sched.MustNew(to) }),
			})
			tr, res, err := Run(sw, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sw.Err != nil {
				t.Fatal(sw.Err)
			}
			if sw.Ops() < 100 {
				t.Fatalf("swap never fired (%d ops)", sw.Ops())
			}
			if got, want := sw.Inner.(sched.Snapshotter).StateKind(), sched.MustNew(to).(sched.Snapshotter).StateKind(); got != want {
				t.Fatalf("inner scheduler is a %s after the swap to %s", got, tc.to)
			}
			if err := CheckConservation(tr, sw, w); err != nil {
				t.Fatal(err)
			}
			if err := CheckPerFlowFIFO(tr); err != nil {
				t.Fatal(err)
			}
			if err := CheckWorkConserving(tr, res.Mon); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailoverWithObserverAndPooling drives a pool-safe scheduler behind a
// swapper with packet recycling ACTIVE (no recorder — the bare swapper
// keeps the inner scheduler's PoolSafe declaration visible) and an
// obs.Observer attached, fails it over mid-run, and requires the
// transmission log to match the undisturbed pooled run. Run under -race in
// CI, this is the aliasing check for restore-with-recycling: restored
// packets are fresh allocations, so the old generation can never be
// double-recycled.
func TestFailoverWithObserverAndPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := Random(rng, OnOff, pktsPerFlow)

	run := func(sch sched.Interface) (*sim.Monitor, *sim.Link) {
		for _, f := range w.Flows {
			if err := sch.AddFlow(f.Flow, f.Weight); err != nil {
				t.Fatal(err)
			}
		}
		var link *sim.Link
		res := schedtest.DriveWith(sch, server.NewConstantRate(w.C), w.Arrivals, func(l *sim.Link) {
			link = l
			obs.Observe(l)
		})
		return res.Mon, link
	}

	baseMon, baseLink := run(sched.MustNew("sfq"))
	if !baseLink.PoolActive() {
		t.Fatal("packet recycling should be active behind a bare pool-safe scheduler")
	}

	sw := liveops.NewSwapper(sched.MustNew("sfq"), liveops.Action{
		AtOp: 23,
		Do:   liveops.SnapshotRestore(func() sched.Interface { return sched.MustNew("sfq") }),
	})
	mon, link := run(sw)
	if !link.PoolActive() {
		t.Fatal("swapper must forward the inner scheduler's pool safety")
	}
	if err := checkFired(sw, 23); err != nil {
		t.Fatal(err)
	}
	if err := monitorEqual(baseMon, mon); err != nil {
		t.Fatal(err)
	}
}

// TestHSFQDeepTreeLiveOps exercises the hierarchical paths: a three-level
// class tree is snapshotted mid-backlog and must continue bit-identically.
func TestHSFQDeepTreeLiveOps(t *testing.T) {
	build := func() *hier.Tree {
		flow := func(f int, w float64) *hier.Spec { return &hier.Spec{IsFlow: true, Flow: f, Weight: w} }
		h, err := hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
			{Name: "sfq", Class: "tenant-a", Weight: 1, Children: []*hier.Spec{
				{Name: "sfq", Class: "a-interactive", Weight: 2, Children: []*hier.Spec{flow(1, 1)}},
				flow(2, 1),
			}},
			{Name: "sfq", Class: "tenant-b", Weight: 3, Children: []*hier.Spec{flow(3, 1), flow(4, 2)}},
		}}, sched.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	backlog := func(h *hier.Tree, n int) {
		for i := 0; i < n; i++ {
			for f := 1; f <= 4; f++ {
				p := &sched.Packet{Flow: f, Seq: int64(i), Length: 100}
				if err := h.Enqueue(0, p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	t.Run("snapshot", func(t *testing.T) {
		h := build()
		backlog(h, 30)
		for i := 0; i < 37; i++ { // leave the tree mid-busy-period
			h.Dequeue(float64(i))
		}
		restored, err := liveops.Clone(h, func() sched.Interface { return sched.MustNew("hsfq") })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			now := float64(40 + i)
			p, ok := h.Dequeue(now)
			q, ok2 := restored.Dequeue(now)
			if ok != ok2 {
				t.Fatalf("pop %d: original ok=%v, replica ok=%v", i, ok, ok2)
			}
			if !ok {
				break
			}
			if p.Flow != q.Flow || p.Seq != q.Seq {
				t.Fatalf("pop %d: original flow %d seq %d, replica flow %d seq %d", i, p.Flow, p.Seq, q.Flow, q.Seq)
			}
		}
	})
}
