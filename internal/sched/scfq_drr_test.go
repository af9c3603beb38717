package sched_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// TestSCFQTagAndOrder: SCFQ self-clocks v to the finish tag in service and
// orders by finish tags.
func TestSCFQTagAndOrder(t *testing.T) {
	s := sched.NewSCFQ()
	addFlows(t, s, map[int]float64{1: 1, 2: 2})

	p1 := &sched.Packet{Flow: 1, Length: 2} // S=0 F=2
	p2 := &sched.Packet{Flow: 2, Length: 2} // S=0 F=1
	if err := s.Enqueue(0, p1); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, p2); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Dequeue(0)
	if got != p2 {
		t.Fatal("SCFQ should serve the smaller finish tag first")
	}
	if s.V() != 1 {
		t.Errorf("v = %v, want finish tag in service 1", s.V())
	}
	// New arrival to flow 2 sees v=1: S = max(1, F_prev=1) = 1.
	p3 := &sched.Packet{Flow: 2, Length: 2}
	if err := s.Enqueue(0.1, p3); err != nil {
		t.Fatal(err)
	}
	if p3.VirtualStart != 1 || p3.VirtualFinish != 2 {
		t.Errorf("p3 tags (%v,%v), want (1,2)", p3.VirtualStart, p3.VirtualFinish)
	}
}

// TestSCFQFairnessBound: SCFQ obeys the same H(f,m) bound as SFQ [8].
func TestSCFQFairnessBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := sched.NewSCFQ()
	addFlows(t, s, map[int]float64{1: 100, 2: 250})
	flows := []schedtest.FlowSpec{
		{Flow: 1, Weight: 100, MaxBytes: 300},
		{Flow: 2, Weight: 250, MaxBytes: 500},
	}
	res := schedtest.Drive(s, server.NewPeriodicOnOff(900, 0.05), schedtest.RandomBacklogged(rng, flows, 200))
	h := fairness.MonitorUnfairness(res.Mon, 1, 2, 100, 250)
	bound := qos.SCFQFairnessBound(300, 100, 500, 250)
	if h > bound+1e-9 {
		t.Errorf("SCFQ H = %v exceeds bound %v", h, bound)
	}
}

// TestSCFQDelayBoundEq56: SCFQ departures respect eq (56) on a
// constant-rate server.
func TestSCFQDelayBoundEq56(t *testing.T) {
	const c = 1000.0
	s := sched.NewSCFQ()
	weights := map[int]float64{1: 100, 2: 900}
	addFlows(t, s, weights)
	var arr []schedtest.Arrival
	for i := 0; i < 40; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 1.0, Flow: 1, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.111, Flow: 2, Bytes: 100})
	}
	res := schedtest.Drive(s, server.NewConstantRate(c), arr)

	chains := map[int]*qos.EAT{1: {}, 2: {}}
	eats := map[int][]float64{}
	for i := 0; i < 40; i++ {
		eats[1] = append(eats[1], chains[1].Next(float64(i)*1.0, 100, 100))
		eats[2] = append(eats[2], chains[2].Next(float64(i)*0.111, 100, 900))
	}
	idx := map[int]int{}
	for _, rec := range res.Mon.ServiceRecords() {
		k := idx[rec.Flow]
		idx[rec.Flow]++
		bound := qos.SCFQDelayBound(c, eats[rec.Flow][k], rec.Bytes, weights[rec.Flow], 100)
		if rec.End > bound+1e-9 {
			t.Errorf("flow %d pkt %d departs %v after eq(56) bound %v", rec.Flow, k, rec.End, bound)
		}
	}
}

// TestSCFQvsSFQMaxDelay demonstrates §2.3: the worst-case delay of a
// low-rate flow is measurably larger under SCFQ than under SFQ in a
// regime chosen to exercise the l/r vs l/C difference.
func TestSCFQvsSFQMaxDelay(t *testing.T) {
	const c = 12500.0 // 100 Kb/s in bytes/s
	weights := map[int]float64{}
	// One low-rate flow plus nine high-rate flows; Σ r = C.
	weights[1] = c / 100
	for f := 2; f <= 10; f++ {
		weights[f] = (c - weights[1]) / 9
	}
	run := func(s sched.Interface) float64 {
		addFlows(t, s, weights)
		var arr []schedtest.Arrival
		// The low-rate flow sends isolated packets spaced well beyond
		// l/r (so each has EAT = arrival); the high-rate flows keep the
		// link saturated. l/r_1 = 1 s for flow 1.
		for i := 0; i < 8; i++ {
			arr = append(arr, schedtest.Arrival{At: 0.37 + 2.1*float64(i), Flow: 1, Bytes: 125})
		}
		for f := 2; f <= 10; f++ {
			for i := 0; i < 200; i++ {
				arr = append(arr, schedtest.Arrival{At: float64(i) * 0.09, Flow: f, Bytes: 125})
			}
		}
		res := schedtest.Drive(s, server.NewConstantRate(c), arr)
		return res.Mon.QueueDelay(1).Max()
	}
	sfqWorst := run(core.New())
	scfqWorst := run(sched.NewSCFQ())
	// The analytic gap is l/r − l/C ≈ 0.99 s; require a clear majority of
	// it to show up empirically.
	gap := qos.SCFQvsSFQDelayGap(c, 125, weights[1])
	if scfqWorst-sfqWorst < gap/2 {
		t.Errorf("SCFQ worst delay %v vs SFQ %v: gap %v, want >= %v",
			scfqWorst, sfqWorst, scfqWorst-sfqWorst, gap/2)
	}
}

// TestDRRWeightedShares: DRR splits a backlogged link by weight.
func TestDRRWeightedShares(t *testing.T) {
	s := sched.NewDRR(500)
	addFlows(t, s, map[int]float64{1: 1, 2: 3})
	var arr []schedtest.Arrival
	for i := 0; i < 400; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 1 + i%2, Bytes: 100})
	}
	res := schedtest.Drive(s, server.NewConstantRate(1000), arr)
	joint := fairness.Intersect(res.Mon.BackloggedIntervals(1), res.Mon.BackloggedIntervals(2))
	iv := joint[0]
	w1 := res.Mon.ServiceCurve(1).Delta(iv.Start, iv.End)
	w2 := res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End)
	if r := w2 / w1; r < 2.5 || r > 3.5 {
		t.Errorf("DRR ratio = %v, want ≈ 3", r)
	}
}

// TestDRRVariableLengthPackets: the deficit mechanism handles packets
// larger than one quantum.
func TestDRRVariableLengthPackets(t *testing.T) {
	s := sched.NewDRR(100) // quantum 100 B per unit weight
	addFlows(t, s, map[int]float64{1: 1, 2: 1})
	var arr []schedtest.Arrival
	for i := 0; i < 50; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 1, Bytes: 350}) // 3.5 quanta each
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 2, Bytes: 50})
	}
	res := schedtest.Drive(s, server.NewConstantRate(1000), arr)
	joint := fairness.Intersect(res.Mon.BackloggedIntervals(1), res.Mon.BackloggedIntervals(2))
	iv := joint[0]
	w1 := res.Mon.ServiceCurve(1).Delta(iv.Start, iv.End)
	w2 := res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End)
	if r := w1 / w2; r < 0.8 || r > 1.25 {
		t.Errorf("equal-weight DRR ratio = %v, want ≈ 1", r)
	}
}

// TestDRRFairnessBlowup is the Table 1 critique: with r_f = r_m = 100 and
// unit packets, DRR's measured unfairness dwarfs SFQ's on the same
// workload (the paper quotes H = 1.02 vs 0.02).
func TestDRRFairnessBlowup(t *testing.T) {
	mkArr := func() []schedtest.Arrival {
		var arr []schedtest.Arrival
		for i := 0; i < 600; i++ {
			arr = append(arr, schedtest.Arrival{At: 0, Flow: 1 + i%2, Bytes: 1})
		}
		return arr
	}
	drr := sched.NewDRR(1) // weight 100 → quantum 100 unit packets per round
	addFlows(t, drr, map[int]float64{1: 100, 2: 100})
	resD := schedtest.Drive(drr, server.NewConstantRate(100), mkArr())
	hD := fairness.MonitorUnfairness(resD.Mon, 1, 2, 100, 100)

	sfq := core.New()
	addFlows(t, sfq, map[int]float64{1: 100, 2: 100})
	resS := schedtest.Drive(sfq, server.NewConstantRate(100), mkArr())
	hS := fairness.MonitorUnfairness(resS.Mon, 1, 2, 100, 100)

	boundSFQ := qos.SFQFairnessBound(1, 100, 1, 100) // 0.02
	if hS > boundSFQ+1e-9 {
		t.Errorf("SFQ H = %v exceeds bound %v", hS, boundSFQ)
	}
	if hD < 10*hS {
		t.Errorf("DRR H = %v should dwarf SFQ's %v in the weight-scaled regime", hD, hS)
	}
	boundDRR := qos.DRRFairnessBound(1, 100, 1, 100) // 1.02
	if hD > boundDRR+1e-9 {
		t.Errorf("DRR H = %v exceeds its own bound %v", hD, boundDRR)
	}
}

// TestDRREmptyAndErrors covers bookkeeping paths.
func TestDRREmptyAndErrors(t *testing.T) {
	s := sched.NewDRR(100)
	if _, ok := s.Dequeue(0); ok {
		t.Error("empty DRR should not dequeue")
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 5, Length: 1}); err == nil {
		t.Error("unknown flow should fail")
	}
	addFlows(t, s, map[int]float64{1: 1})
	if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 10}); err != nil {
		t.Fatal(err)
	}
	if s.QueuedBytes(1) != 10 {
		t.Errorf("QueuedBytes = %v, want 10", s.QueuedBytes(1))
	}
	if err := s.RemoveFlow(1); err == nil {
		t.Error("removing backlogged flow should fail")
	}
	s.Dequeue(0)
	if err := s.RemoveFlow(1); err != nil {
		t.Errorf("RemoveFlow: %v", err)
	}
}
