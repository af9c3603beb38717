package sched_test

import (
	"math/rand"
	"testing"

	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// TestFAWorkConserving: the server never idles while packets are queued,
// even when every packet is still held by its rate regulator (the ASQ
// serves them).
func TestFAWorkConserving(t *testing.T) {
	s := sched.NewFairAirport()
	addFlows(t, s, map[int]float64{1: 1}) // 1 B/s: regulator would hold packets for seconds

	var arr []schedtest.Arrival
	for i := 0; i < 20; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 1, Bytes: 100})
	}
	res := schedtest.Drive(s, server.NewConstantRate(1000), arr)
	recs := res.Mon.ServiceRecords()
	last := recs[len(recs)-1]
	if last.End > 2.0+1e-9 { // 2000 bytes at 1000 B/s
		t.Errorf("busy period ends at %v; FA must be work conserving (want 2.0)", last.End)
	}
}

// TestFADelayGuarantee is Theorem 9: departures by EAT + l/r + lmax/C.
func TestFADelayGuarantee(t *testing.T) {
	const c = 1000.0
	s := sched.NewFairAirport()
	weights := map[int]float64{1: 250, 2: 750}
	addFlows(t, s, weights)
	var arr []schedtest.Arrival
	for i := 0; i < 60; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.3, Flow: 1, Bytes: 75})
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.12, Flow: 2, Bytes: 100})
	}
	res := schedtest.Drive(s, server.NewConstantRate(c), arr)
	chains := map[int]*qos.EAT{1: {}, 2: {}}
	eats := map[int][]float64{}
	for i := 0; i < 60; i++ {
		eats[1] = append(eats[1], chains[1].Next(float64(i)*0.3, 75, 250))
		eats[2] = append(eats[2], chains[2].Next(float64(i)*0.12, 100, 750))
	}
	idx := map[int]int{}
	for _, rec := range res.Mon.ServiceRecords() {
		k := idx[rec.Flow]
		idx[rec.Flow]++
		bound := qos.FADelayBound(c, eats[rec.Flow][k], rec.Bytes, weights[rec.Flow], 100)
		if rec.End > bound+1e-9 {
			t.Errorf("flow %d pkt %d departs %v after Theorem 9 bound %v", rec.Flow, k, rec.End, bound)
		}
	}
}

// TestFAFairness is Theorem 8: unfairness within the bound
// 3(l_f/r_f + l_m/r_m) + 2β, on constant and variable rate servers.
func TestFAFairness(t *testing.T) {
	procs := map[string]func() server.Process{
		"constant": func() server.Process { return server.NewConstantRate(1000) },
		"onoff":    func() server.Process { return server.NewPeriodicOnOff(1500, 0.04) },
	}
	for name, mk := range procs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			s := sched.NewFairAirport()
			addFlows(t, s, map[int]float64{1: 200, 2: 600})
			flows := []schedtest.FlowSpec{
				{Flow: 1, Weight: 200, MaxBytes: 300},
				{Flow: 2, Weight: 600, MaxBytes: 400},
			}
			proc := mk()
			res := schedtest.Drive(s, proc, schedtest.RandomBacklogged(rng, flows, 200))
			h := fairness.MonitorUnfairness(res.Mon, 1, 2, 200, 600)
			// Theorem 8's β uses the minimum capacity; the on-off server's
			// minimum rate over any transmission is bounded by its mean
			// here (conservative: use mean C).
			bound := qos.FAFairnessBound(proc.MeanRate(), 300, 200, 400, 600, 400)
			if h > bound+1e-9 {
				t.Errorf("%s: H = %v exceeds Theorem 8 bound %v", name, h, bound)
			}
		})
	}
}

// TestFAvsVirtualClockNoPunishment: unlike plain Virtual Clock, FA does
// not starve a flow that used idle bandwidth (the ASQ keeps allocation
// fair).
func TestFAvsVirtualClockNoPunishment(t *testing.T) {
	const c = 100.0
	mkArr := func() []schedtest.Arrival {
		var arr []schedtest.Arrival
		for i := 0; i < 100; i++ {
			arr = append(arr, schedtest.Arrival{At: float64(i) * 0.1, Flow: 1, Bytes: 10})
		}
		for i := 0; i < 40; i++ {
			arr = append(arr, schedtest.Arrival{At: 10 + float64(i)*0.1, Flow: 1, Bytes: 10})
			arr = append(arr, schedtest.Arrival{At: 10 + float64(i)*0.1, Flow: 2, Bytes: 10})
		}
		return arr
	}
	s := sched.NewFairAirport()
	addFlows(t, s, map[int]float64{1: 50, 2: 50})
	res := schedtest.Drive(s, server.NewConstantRate(c), mkArr())
	recs := res.Mon.ServiceRecords()
	w1 := fairness.NormalizedThroughput(recs, 1, 1, 10, 14)
	w2 := fairness.NormalizedThroughput(recs, 2, 1, 10, 14)
	if w1 == 0 || w2/w1 > 2.0 {
		t.Errorf("FA should not punish the idle-bandwidth user: W1=%v W2=%v", w1, w2)
	}
}

// TestFABookkeeping exercises queue-drain compaction, flow removal, and
// error paths.
func TestFABookkeeping(t *testing.T) {
	s := sched.NewFairAirport()
	addFlows(t, s, map[int]float64{1: 100})
	if err := s.Enqueue(0, &sched.Packet{Flow: 2, Length: 1}); err == nil {
		t.Error("unknown flow accepted")
	}
	p := &sched.Packet{Flow: 1, Length: 100, Arrival: 0}
	if err := s.Enqueue(0, p); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.QueuedBytes(1) != 100 {
		t.Errorf("Len=%d Queued=%v", s.Len(), s.QueuedBytes(1))
	}
	if err := s.RemoveFlow(1); err == nil {
		t.Error("removal of backlogged flow accepted")
	}
	got, ok := s.Dequeue(0)
	if !ok || got != p {
		t.Fatal("dequeue failed")
	}
	if _, ok := s.Dequeue(0); ok {
		t.Error("empty dequeue succeeded")
	}
	// Drained queue: new arrivals chain from the remembered baseline.
	p2 := &sched.Packet{Flow: 1, Length: 100, Arrival: 5}
	if err := s.Enqueue(5, p2); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Dequeue(5); !ok || got != p2 {
		t.Fatal("second cycle failed")
	}
	s.Dequeue(10)
	if err := s.RemoveFlow(1); err != nil {
		t.Errorf("RemoveFlow: %v", err)
	}
}

// TestFAGSQPriority: an eligible packet (past its regulator) is served
// from the GSQ by Virtual Clock order even when the ASQ would pick a
// different flow.
func TestFAGSQPriority(t *testing.T) {
	s := sched.NewFairAirport()
	addFlows(t, s, map[int]float64{1: 1000, 2: 1})

	// Flow 2's first packet is immediately eligible (EAT = arrival), as
	// is flow 1's. Both enter the GSQ on the first dequeue at t=0; VC
	// stamps: flow 1: 0 + 10/1000 = 0.01; flow 2: 0 + 10/1 = 10. The GSQ
	// must pick flow 1 despite the ASQ's FIFO tie.
	pa := &sched.Packet{Flow: 2, Length: 10, Arrival: 0}
	pb := &sched.Packet{Flow: 1, Length: 10, Arrival: 0}
	if err := s.Enqueue(0, pa); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, pb); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Dequeue(0); got != pb {
		t.Error("GSQ (Virtual Clock) order should pick the small-stamp packet")
	}
	if got, _ := s.Dequeue(0); got != pa {
		t.Error("remaining packet should follow")
	}
}

// TestFAReaddedFlowNotReleasedEarly: a flow removed and registered again
// starts a fresh regulator. When the ASQ sent a packet its regulator was
// holding, the release still pending must not carry over and release the
// new flow's second packet (D, eligible at 11) at its old time (10).
func TestFAReaddedFlowNotReleasedEarly(t *testing.T) {
	s := sched.NewFairAirport()
	addFlows(t, s, map[int]float64{1: 1, 2: 0.1})
	enq := func(now float64, flow int, seq int64) {
		t.Helper()
		if err := s.Enqueue(now, &sched.Packet{Flow: flow, Seq: seq, Length: 10, Arrival: now}); err != nil {
			t.Fatal(err)
		}
	}
	deq := func(now float64, flow int, seq int64) {
		t.Helper()
		p, ok := s.Dequeue(now)
		if flow == 0 {
			if ok {
				t.Fatalf("Dequeue(%v) = %d:%d, want nothing", now, p.Flow, p.Seq)
			}
			return
		}
		if !ok || p.Flow != flow || p.Seq != seq {
			t.Fatalf("Dequeue(%v) = %v, want %d:%d", now, p, flow, seq)
		}
	}
	enq(0, 1, 1) // A: released at 0 into the GSQ, stamp 10
	enq(0, 1, 2) // B: held until 10
	deq(0, 1, 1)
	deq(0.01, 1, 2) // the ASQ sends B; its release at 10 is still pending
	deq(0.02, 0, 0)
	if err := s.RemoveFlow(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	enq(0.5, 2, 1) // X: released at 0.5, stamp 100.5
	enq(1, 1, 3)   // C: released at 1, stamp 11
	enq(1, 1, 4)   // D: held until 11
	enq(1, 1, 5)
	deq(1, 1, 3)
	deq(10.5, 2, 1)
}
