package sched_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

func addFlows(t *testing.T, s sched.Interface, weights map[int]float64) {
	t.Helper()
	for f, w := range weights {
		if err := s.AddFlow(f, w); err != nil {
			t.Fatalf("AddFlow(%d): %v", f, w)
		}
	}
}

// TestWFQTagArithmetic checks eqs (1)–(2) with the fluid virtual time.
func TestWFQTagArithmetic(t *testing.T) {
	s := sched.MustNew("wfq", sched.WithAssumedCapacity(10)) // assumed capacity 10 B/s
	addFlows(t, s, map[int]float64{1: 1, 2: 1})

	p1 := &sched.Packet{Flow: 1, Length: 10}
	if err := s.Enqueue(0, p1); err != nil {
		t.Fatal(err)
	}
	if p1.VirtualStart != 0 || p1.VirtualFinish != 10 {
		t.Errorf("p1 tags (%v,%v), want (0,10)", p1.VirtualStart, p1.VirtualFinish)
	}

	// Only flow 1 backlogged: dv/dt = C/r_1 = 10. At t=0.5, v=5.
	p2 := &sched.Packet{Flow: 2, Length: 10}
	if err := s.Enqueue(0.5, p2); err != nil {
		t.Fatal(err)
	}
	if p2.VirtualStart != 5 || p2.VirtualFinish != 15 {
		t.Errorf("p2 tags (%v,%v), want (5,15)", p2.VirtualStart, p2.VirtualFinish)
	}

	// Both backlogged now: dv/dt = 10/2 = 5. At t=1.5, v = 5 + 5 = 10:
	// flow 1's fluid packet departs exactly then.
	p3 := &sched.Packet{Flow: 1, Length: 10}
	if err := s.Enqueue(1.5, p3); err != nil {
		t.Fatal(err)
	}
	if p3.VirtualStart != 10 {
		t.Errorf("p3 start %v, want 10", p3.VirtualStart)
	}
}

// TestExample1WFQUnfairness reproduces Example 1: WFQ's measured
// unfairness reaches l_f/r_f + l_m/r_m — twice the Golestani lower bound —
// while SFQ on the same arrivals stays within the same bound but the
// scenario shows WFQ cannot beat it.
func TestExample1WFQUnfairness(t *testing.T) {
	// l_max/r = 1 for both flows: unit packets, unit weights, C = 1 B/s.
	mk := func() []schedtest.Arrival {
		return []schedtest.Arrival{
			{At: 0, Flow: 1, Bytes: 1},   // p_f^1
			{At: 0, Flow: 2, Bytes: 1},   // p_m^1
			{At: 0, Flow: 2, Bytes: 0.5}, // p_m^2
			{At: 0, Flow: 2, Bytes: 0.5}, // p_m^3
			{At: 0, Flow: 1, Bytes: 1},   // p_f^2 (enqueued after p_m^3 so the F-tag tie breaks as in the paper)
		}
	}
	wfq := sched.MustNew("wfq", sched.WithAssumedCapacity(1))
	addFlows(t, wfq, map[int]float64{1: 1, 2: 1})
	res := schedtest.Drive(wfq, server.NewConstantRate(1), mk())

	// Expected service order: f1 [0,1], m1 [1,2], m2 [2,2.5], m3 [2.5,3], f2 [3,4].
	order := []struct {
		flow  int
		start float64
		end   float64
	}{
		{1, 0, 1}, {2, 1, 2}, {2, 2, 2.5}, {2, 2.5, 3}, {1, 3, 4},
	}
	recs := res.Mon.ServiceRecords()
	for i, want := range order {
		got := recs[i]
		if got.Flow != want.flow || math.Abs(got.Start-want.start) > 1e-9 || math.Abs(got.End-want.end) > 1e-9 {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}

	h := fairness.MonitorUnfairness(res.Mon, 1, 2, 1, 1)
	if h < 2-1e-9 {
		t.Errorf("WFQ unfairness = %v, the Example 1 construction should reach 2", h)
	}
}

// TestExample2WFQVariableRate reproduces Example 2: a WFQ server that
// assumes capacity C while the actual rate is 1 pkt/s in [0,1) starves the
// late flow; SFQ on the identical arrivals and server splits [1,2]
// evenly.
func TestExample2WFQVariableRate(t *testing.T) {
	const c = 10.0 // assumed capacity, pkts/s with unit packets
	proc := func() server.Process {
		return server.NewPiecewise([]float64{0, 1}, []float64{1, c})
	}
	arrivals := func() []schedtest.Arrival {
		var a []schedtest.Arrival
		for i := 0; i < int(c)+1; i++ {
			a = append(a, schedtest.Arrival{At: 0, Flow: 1, Bytes: 1})
		}
		for i := 0; i < int(c)+1; i++ {
			a = append(a, schedtest.Arrival{At: 1, Flow: 2, Bytes: 1})
		}
		return a
	}

	wfq := sched.MustNew("wfq", sched.WithAssumedCapacity(c))
	addFlows(t, wfq, map[int]float64{1: 1, 2: 1})
	resW := schedtest.Drive(wfq, proc(), arrivals())
	recsW := resW.Mon.ServiceRecords()
	wf := fairness.NormalizedThroughput(recsW, 1, 1, 1, 2)
	wm := fairness.NormalizedThroughput(recsW, 2, 1, 1, 2)
	if wf < c-1-1e-9 {
		t.Errorf("WFQ: W_f(1,2) = %v, want >= C-1 = %v (starvation of flow 2)", wf, c-1)
	}
	if wm > 1+1e-9 {
		t.Errorf("WFQ: W_m(1,2) = %v, want <= 1", wm)
	}

	sfq := core.New()
	addFlows(t, sfq, map[int]float64{1: 1, 2: 1})
	resS := schedtest.Drive(sfq, proc(), arrivals())
	recsS := resS.Mon.ServiceRecords()
	sf := fairness.NormalizedThroughput(recsS, 1, 1, 1, 2)
	sm := fairness.NormalizedThroughput(recsS, 2, 1, 1, 2)
	if math.Abs(sf-sm) > 1+1e-9 { // within one packet of even
		t.Errorf("SFQ: W_f=%v W_m=%v in [1,2], want within one packet", sf, sm)
	}
}

// TestFQSOrdersByStartTag distinguishes FQS from WFQ.
func TestFQSOrdersByStartTag(t *testing.T) {
	fqs := sched.MustNewRanked(sched.RankWFQ(true), sched.Config{AssumedCapacity: 10})
	addFlows(t, fqs, map[int]float64{1: 1, 2: 5})

	// Flow 1: S=0, F=10. Flow 2: S=0, F=2. WFQ would serve flow 2 first
	// (smaller finish tag); FQS breaks the start-tag tie FIFO: flow 1.
	pa := &sched.Packet{Flow: 1, Length: 10}
	pb := &sched.Packet{Flow: 2, Length: 10}
	if err := fqs.Enqueue(0, pa); err != nil {
		t.Fatal(err)
	}
	if err := fqs.Enqueue(0, pb); err != nil {
		t.Fatal(err)
	}
	p, ok := fqs.Dequeue(0)
	if !ok || p != pa {
		t.Errorf("FQS should serve the first-enqueued of the start-tag tie")
	}

	wfq := sched.MustNew("wfq", sched.WithAssumedCapacity(10))
	addFlows(t, wfq, map[int]float64{1: 1, 2: 5})
	pa2 := &sched.Packet{Flow: 1, Length: 10}
	pb2 := &sched.Packet{Flow: 2, Length: 10}
	if err := wfq.Enqueue(0, pa2); err != nil {
		t.Fatal(err)
	}
	if err := wfq.Enqueue(0, pb2); err != nil {
		t.Fatal(err)
	}
	p, ok = wfq.Dequeue(0)
	if !ok || p != pb2 {
		t.Errorf("WFQ should serve the smaller finish tag (flow 2)")
	}
}

// TestWFQDelayGuarantee: on a constant-rate server with Σ r <= C, WFQ
// departures respect EAT + l/r + lmax/C.
func TestWFQDelayGuarantee(t *testing.T) {
	const c = 1000.0
	wfq := sched.MustNew("wfq", sched.WithAssumedCapacity(c))
	addFlows(t, wfq, map[int]float64{1: 400, 2: 600})
	var arr []schedtest.Arrival
	for i := 0; i < 50; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.25, Flow: 1, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.16, Flow: 2, Bytes: 96})
	}
	res := schedtest.Drive(wfq, server.NewConstantRate(c), arr)

	// Rebuild EAT chains (arrivals are per-flow ordered by construction).
	type chain struct{ next float64 }
	chains := map[int]*chain{1: {next: math.Inf(-1)}, 2: {next: math.Inf(-1)}}
	weights := map[int]float64{1: 400, 2: 600}
	eats := map[int][]float64{}
	for i := 0; i < 50; i++ {
		for _, f := range []int{1, 2} {
			at := float64(i) * 0.25
			bytes := 100.0
			if f == 2 {
				at = float64(i) * 0.16
				bytes = 96
			}
			ch := chains[f]
			eat := math.Max(at, ch.next)
			ch.next = eat + bytes/weights[f]
			eats[f] = append(eats[f], eat)
		}
	}
	idx := map[int]int{}
	for _, rec := range res.Mon.ServiceRecords() {
		k := idx[rec.Flow]
		idx[rec.Flow]++
		bound := eats[rec.Flow][k] + rec.Bytes/weights[rec.Flow] + 100/c
		if rec.End > bound+1e-9 {
			t.Errorf("flow %d pkt %d departs %v after WFQ bound %v", rec.Flow, k, rec.End, bound)
		}
	}
}

// TestWFQRemoveFlowGuards: a flow still backlogged in the fluid system
// cannot be removed.
func TestWFQRemoveFlowGuards(t *testing.T) {
	s := sched.MustNew("wfq", sched.WithAssumedCapacity(10))
	addFlows(t, s, map[int]float64{1: 1})
	if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 10}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Dequeue(0); !ok {
		t.Fatal("dequeue failed")
	}
	// Real queue is empty but the fluid packet departs only at v=10
	// (t=1): removal right after real service must fail.
	if err := s.RemoveFlow(1); err == nil {
		t.Error("RemoveFlow should fail while the flow is fluid-backlogged")
	}
	s.Dequeue(2) // advance fluid time past the departure
	if err := s.RemoveFlow(1); err != nil {
		t.Errorf("RemoveFlow after fluid drain: %v", err)
	}
}
