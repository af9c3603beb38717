package sched_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// TestPriorityWithSFQChild is the Fig 1 configuration in miniature: a
// FIFO high-priority class over an SFQ low-priority class. The
// low-priority flows must stay fair to each other (Theorem 1 holds on the
// residual, which is exactly the "variable rate server" claim), and the
// high-priority class must see minimal delay.
func TestPriorityWithSFQChild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hi := sched.NewFIFO()
	low := core.New()
	prio := sched.NewPriority(hi, low)
	if err := prio.AddFlowAt(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := prio.AddFlowAt(1, 2, 100); err != nil {
		t.Fatal(err)
	}
	if err := prio.AddFlowAt(1, 3, 300); err != nil {
		t.Fatal(err)
	}

	var arr []schedtest.Arrival
	// High-priority CBR taking ~40% of the 1000 B/s link.
	for i := 0; i < 200; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.25, Flow: 1, Bytes: 100})
	}
	// Low-priority backlogged flows.
	for i := 0; i < 200; i++ {
		arr = append(arr, schedtest.Arrival{At: rng.Float64() * 0.01, Flow: 2, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: rng.Float64() * 0.01, Flow: 3, Bytes: 100})
	}
	res := schedtest.Drive(prio, server.NewConstantRate(1000), arr)

	// High priority: waits at most one low-priority packet (non-preemptive).
	if worst := res.Mon.QueueDelay(1).Max(); worst > 2*100.0/1000+1e-9 {
		t.Errorf("high-priority worst delay %v, want <= 0.2 (own tx + one packet)", worst)
	}
	// Low-priority pair: fair within Theorem 1 despite the fluctuating
	// residual.
	h := fairness.MonitorUnfairness(res.Mon, 2, 3, 100, 300)
	bound := qos.SFQFairnessBound(100, 100, 100, 300)
	if h > bound+1e-9 {
		t.Errorf("low-priority unfairness %v exceeds bound %v", h, bound)
	}
	// And they split the residual ≈ 1:3 while jointly backlogged.
	joint := fairness.Intersect(res.Mon.BackloggedIntervals(2), res.Mon.BackloggedIntervals(3))
	iv := joint[0]
	w2 := res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End)
	w3 := res.Mon.ServiceCurve(3).Delta(iv.Start, iv.End)
	if r := w3 / w2; r < 2.5 || r > 3.5 {
		t.Errorf("residual split = %v, want ≈ 3", r)
	}
}

// TestEDDOverloadMissesDeadlinesGracefully: when condition (67) fails,
// EDD still serves in deadline order (no starvation), just late.
func TestEDDOverloadMissesDeadlines(t *testing.T) {
	s := sched.NewEDD()
	if err := s.AddFlowDeadline(1, 800, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlowDeadline(2, 800, 0.2); err != nil {
		t.Fatal(err)
	}
	// 1600 B/s demanded of a 1000 B/s link.
	specs := []qos.EDDFlowSpec{
		{Rate: 800, Length: 100, Deadline: 0.2},
		{Rate: 800, Length: 100, Deadline: 0.2},
	}
	if err := qos.EDDSchedulable(specs, 1000, 10); err == nil {
		t.Fatal("overloaded set should fail (67)")
	}
	var arr []schedtest.Arrival
	for i := 0; i < 100; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.125, Flow: 1, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.125, Flow: 2, Bytes: 100})
	}
	res := schedtest.Drive(s, server.NewConstantRate(1000), arr)
	// All packets served, both flows progress at the same pace.
	if n := len(res.Mon.ServiceRecords()); n != 200 {
		t.Fatalf("served %d", n)
	}
	w1 := res.Mon.ServedBytes(1)
	w2 := res.Mon.ServedBytes(2)
	if math.Abs(w1-w2) > 200 {
		t.Errorf("overload shares diverge: %v vs %v", w1, w2)
	}
	// And deadlines were indeed missed (it IS overloaded): late packets
	// wait far beyond the 0.2 s deadline offset by the end of the run.
	if worst := res.Mon.QueueDelay(1).Max(); worst < 0.5 {
		t.Errorf("overload worst delay %v; expected deep deadline misses", worst)
	}
}

// TestFAWithVariablePacketRates: Fair Airport accepts per-packet rates in
// both its regulator and its ASQ chains.
func TestFAWithVariablePacketRates(t *testing.T) {
	s := sched.NewFairAirport()
	if err := s.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	var arr []schedtest.Arrival
	for i := 0; i < 40; i++ {
		rate := 100.0
		if i%2 == 0 {
			rate = 400
		}
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.05, Flow: 1, Bytes: 50, Rate: rate})
	}
	res := schedtest.Drive(s, server.NewConstantRate(1000), arr)
	if n := len(res.Mon.ServiceRecords()); n != 40 {
		t.Fatalf("served %d", n)
	}
}

// TestWFQBusyAcrossIdle: WFQ tags after a fully idle period restart from
// the frozen fluid time (no virtual-time jumps backwards).
func TestWFQBusyAcrossIdle(t *testing.T) {
	s := sched.NewWFQ(1000)
	addFlows(t, s, map[int]float64{1: 500})
	p1 := &sched.Packet{Flow: 1, Length: 500}
	if err := s.Enqueue(0, p1); err != nil {
		t.Fatal(err)
	}
	s.Dequeue(0)
	// Fluid departure at v=1 (t=0.5 real). Long idle, then new packet.
	p2 := &sched.Packet{Flow: 1, Length: 500}
	if err := s.Enqueue(10, p2); err != nil {
		t.Fatal(err)
	}
	if p2.VirtualStart < p1.VirtualFinish-1e-12 {
		t.Errorf("post-idle start %v regressed before %v", p2.VirtualStart, p1.VirtualFinish)
	}
	if s.V() > p2.VirtualStart+1e-12 {
		t.Errorf("fluid time %v ran past the only packet's start %v", s.V(), p2.VirtualStart)
	}
}
