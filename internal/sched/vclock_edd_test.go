package sched_test

import (
	"math"
	"testing"

	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// TestVirtualClockStamps checks the EAT + l/r stamp rule.
func TestVirtualClockStamps(t *testing.T) {
	s := sched.NewVirtualClock()
	addFlows(t, s, map[int]float64{1: 10})

	p1 := &sched.Packet{Flow: 1, Length: 20}
	if err := s.Enqueue(0, p1); err != nil {
		t.Fatal(err)
	}
	if p1.VirtualFinish != 2 {
		t.Errorf("stamp = %v, want 2", p1.VirtualFinish)
	}
	// Back-to-back packet: EAT = prev stamp = 2, stamp = 4.
	p2 := &sched.Packet{Flow: 1, Length: 20}
	if err := s.Enqueue(0.5, p2); err != nil {
		t.Fatal(err)
	}
	if p2.VirtualStart != 2 || p2.VirtualFinish != 4 {
		t.Errorf("p2 = (%v,%v), want (2,4)", p2.VirtualStart, p2.VirtualFinish)
	}
	// After an idle gap, EAT resets to real time.
	p3 := &sched.Packet{Flow: 1, Length: 20}
	if err := s.Enqueue(10, p3); err != nil {
		t.Fatal(err)
	}
	if p3.VirtualStart != 10 || p3.VirtualFinish != 12 {
		t.Errorf("p3 = (%v,%v), want (10,12)", p3.VirtualStart, p3.VirtualFinish)
	}
}

// TestVirtualClockPunishesIdleBandwidthUse reproduces the §1.1 critique:
// a flow that used idle capacity is starved when a competitor arrives.
// SFQ-family schedulers do not do this; Virtual Clock does.
func TestVirtualClockPunishesIdleBandwidthUse(t *testing.T) {
	const c = 100.0 // bytes/s
	s := sched.NewVirtualClock()
	addFlows(t, s, map[int]float64{1: 50, 2: 50})

	var arr []schedtest.Arrival
	// Flow 1 uses the whole link (100 B/s, twice its reservation) for
	// 10 s while flow 2 is silent: its stamps run 10 s ahead of real time.
	for i := 0; i < 100; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.1, Flow: 1, Bytes: 10})
	}
	// Both flows then send heavily during [10, 14].
	for i := 0; i < 40; i++ {
		arr = append(arr, schedtest.Arrival{At: 10 + float64(i)*0.1, Flow: 1, Bytes: 10})
		arr = append(arr, schedtest.Arrival{At: 10 + float64(i)*0.1, Flow: 2, Bytes: 10})
	}
	res := schedtest.Drive(s, server.NewConstantRate(c), arr)
	recs := res.Mon.ServiceRecords()
	w1 := fairness.NormalizedThroughput(recs, 1, 1, 10, 14)
	w2 := fairness.NormalizedThroughput(recs, 2, 1, 10, 14)
	if w2 < 3*w1 {
		t.Errorf("VC should starve the prior idle-bandwidth user: W1=%v W2=%v", w1, w2)
	}
}

// TestVirtualClockDelayGuarantee: VC departures respect EAT + l/r + lmax/C
// when Σ r <= C [6].
func TestVirtualClockDelayGuarantee(t *testing.T) {
	const c = 1000.0
	s := sched.NewVirtualClock()
	weights := map[int]float64{1: 300, 2: 700}
	addFlows(t, s, weights)
	var arr []schedtest.Arrival
	for i := 0; i < 60; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.2, Flow: 1, Bytes: 90})
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.13, Flow: 2, Bytes: 110})
	}
	res := schedtest.Drive(s, server.NewConstantRate(c), arr)
	chains := map[int]*qos.EAT{1: {}, 2: {}}
	eats := map[int][]float64{}
	for i := 0; i < 60; i++ {
		eats[1] = append(eats[1], chains[1].Next(float64(i)*0.2, 90, 300))
		eats[2] = append(eats[2], chains[2].Next(float64(i)*0.13, 110, 700))
	}
	idx := map[int]int{}
	for _, rec := range res.Mon.ServiceRecords() {
		k := idx[rec.Flow]
		idx[rec.Flow]++
		bound := eats[rec.Flow][k] + rec.Bytes/weights[rec.Flow] + 110/c
		if rec.End > bound+1e-9 {
			t.Errorf("flow %d pkt %d departs %v after VC bound %v", rec.Flow, k, rec.End, bound)
		}
	}
}

// TestEDDDeadlinesAndOrder checks eq (66) deadline assignment and EDF
// ordering.
func TestEDDDeadlinesAndOrder(t *testing.T) {
	s := sched.NewEDD()
	if err := s.AddFlowDeadline(1, 100, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlowDeadline(2, 100, 0.1); err != nil {
		t.Fatal(err)
	}
	p1 := &sched.Packet{Flow: 1, Length: 50}
	p2 := &sched.Packet{Flow: 2, Length: 50}
	if err := s.Enqueue(0, p1); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, p2); err != nil {
		t.Fatal(err)
	}
	if p1.Deadline != 0.5 || p2.Deadline != 0.1 {
		t.Errorf("deadlines (%v,%v), want (0.5,0.1)", p1.Deadline, p2.Deadline)
	}
	if got, _ := s.Dequeue(0); got != p2 {
		t.Error("EDD should serve the earlier deadline first")
	}
}

// TestEDDDeadlineSurvivesLiveOps puts a non-zero d_f through every path
// that touches the flow record: SetWeight and a plain re-registering
// AddFlow keep it, snapshot → restore carries it, a draining flow keeps
// stamping its queued backlog's deadlines, and once the drain completes the
// flow is gone — a re-add starts a fresh chain with whatever bound it is
// given (none, through plain AddFlow).
func TestEDDDeadlineSurvivesLiveOps(t *testing.T) {
	s := sched.NewEDD()
	if err := s.AddFlowDeadline(1, 100, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlowDeadline(2, 100, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlowDeadline(3, 100, -1); err == nil {
		t.Error("negative delay bound accepted")
	}
	enq := func(on sched.Interface, now float64, flow int) *sched.Packet {
		t.Helper()
		p := &sched.Packet{Flow: flow, Length: 50}
		if err := on.Enqueue(now, p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := enq(s, 0, 1); p.Deadline != 0.25 {
		t.Fatalf("deadline %v, want 0.25", p.Deadline)
	}
	// EAT of flow 1's next packet is 0 + 50/100 = 0.5.
	if err := s.SetWeight(1, 200); err != nil {
		t.Fatal(err)
	}
	if p := enq(s, 0.1, 1); p.Deadline != 0.5+0.25 {
		t.Errorf("after SetWeight: deadline %v, want EAT 0.5 + d 0.25", p.Deadline)
	}
	// ... and then 0.5 + 50/200 = 0.75.
	if err := s.AddFlow(1, 400); err != nil {
		t.Fatal(err)
	}
	if p := enq(s, 0.2, 1); p.Deadline != 0.75+0.25 {
		t.Errorf("after re-registering AddFlow: deadline %v, want EAT 0.75 + d 0.25", p.Deadline)
	}

	data, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	replica := sched.NewEDD()
	if err := replica.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	// EAT 0.75 + 50/400 = 0.875 on both sides; flow 2 has sent nothing.
	for _, on := range []sched.Interface{s, replica} {
		if p := enq(on, 0.3, 1); p.Deadline != 0.875+0.25 {
			t.Errorf("after snapshot/restore: flow 1 deadline %v, want 1.125", p.Deadline)
		}
		if p := enq(on, 0.3, 2); p.Deadline != 0.3+0.5 {
			t.Errorf("after snapshot/restore: flow 2 deadline %v, want 0.8", p.Deadline)
		}
	}
	again, err := replica.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if orig, _ := s.AppendState(nil); string(orig) != string(again) {
		t.Errorf("replica diverged from the original:\n %s\n %s", orig, again)
	}

	if err := s.DrainFlow(1); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.25, 0.75, 0.8, 1.0, 1.125} { // EDF across both flows
		p, ok := s.Dequeue(0.4)
		if !ok || p.Deadline != want {
			t.Fatalf("dequeue %d while draining: %+v, want deadline %v", i, p, want)
		}
	}
	if err := s.SetWeight(1, 100); err == nil {
		t.Error("flow 1 still registered after its drain completed")
	}
	if err := s.AddFlowDeadline(1, 100, 0.125); err != nil {
		t.Fatal(err)
	}
	if p := enq(s, 2, 1); p.Deadline != 2+0.125 {
		t.Errorf("re-added with a bound: deadline %v, want fresh chain 2 + 0.125", p.Deadline)
	}
	s.Dequeue(2)
	if err := s.RemoveFlow(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	if p := enq(s, 3, 1); p.Deadline != 3 {
		t.Errorf("re-added through plain AddFlow: deadline %v, want d_f = 0", p.Deadline)
	}
}

// TestEDDSchedulabilityTest exercises condition (67).
func TestEDDSchedulabilityTest(t *testing.T) {
	// Two flows each needing half the link with deadlines ≥ l/C are fine.
	ok := []qos.EDDFlowSpec{
		{Rate: 500, Length: 100, Deadline: 0.5},
		{Rate: 400, Length: 100, Deadline: 0.6},
	}
	if err := qos.EDDSchedulable(ok, 1000, 10); err != nil {
		t.Errorf("feasible set rejected: %v", err)
	}
	// Demanding more than the link can do with tight deadlines fails.
	bad := []qos.EDDFlowSpec{
		{Rate: 900, Length: 100, Deadline: 0.01},
		{Rate: 900, Length: 100, Deadline: 0.01},
	}
	if err := qos.EDDSchedulable(bad, 1000, 10); err == nil {
		t.Error("infeasible set accepted")
	}
}

// TestEDDTheorem7Bound: on an FC server, every packet completes within
// D + lmax/C + δ/C when (67) holds.
func TestEDDTheorem7Bound(t *testing.T) {
	proc := server.NewPeriodicOnOff(1000, 0.02) // FC(1000, 20)
	fc := proc.FC()
	specs := []qos.EDDFlowSpec{
		{Rate: 400, Length: 100, Deadline: 0.4},
		{Rate: 500, Length: 100, Deadline: 0.3},
	}
	if err := qos.EDDSchedulable(specs, fc.C, 20); err != nil {
		t.Fatalf("schedulability: %v", err)
	}
	s := sched.NewEDD()
	if err := s.AddFlowDeadline(1, 400, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlowDeadline(2, 500, 0.3); err != nil {
		t.Fatal(err)
	}
	var arr []schedtest.Arrival
	for i := 0; i < 80; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.25, Flow: 1, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: float64(i) * 0.2, Flow: 2, Bytes: 100})
	}
	res := schedtest.Drive(s, proc, arr)
	chains := map[int]*qos.EAT{1: {}, 2: {}}
	deadlines := map[int][]float64{}
	for i := 0; i < 80; i++ {
		deadlines[1] = append(deadlines[1], chains[1].Next(float64(i)*0.25, 100, 400)+0.4)
		deadlines[2] = append(deadlines[2], chains[2].Next(float64(i)*0.2, 100, 500)+0.3)
	}
	idx := map[int]int{}
	for _, rec := range res.Mon.ServiceRecords() {
		k := idx[rec.Flow]
		idx[rec.Flow]++
		bound := qos.EDDDelayBound(fc, deadlines[rec.Flow][k], 100)
		if rec.End > bound+1e-9 {
			t.Errorf("flow %d pkt %d completes %v after Theorem 7 bound %v", rec.Flow, k, rec.End, bound)
		}
	}
}

// TestFIFOOrder checks arrival-order service and bookkeeping.
func TestFIFOOrder(t *testing.T) {
	s := sched.NewFIFO()
	addFlows(t, s, map[int]float64{1: 1, 2: 1})
	p1 := &sched.Packet{Flow: 1, Length: 5}
	p2 := &sched.Packet{Flow: 2, Length: 7}
	if err := s.Enqueue(0, p1); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, p2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.QueuedBytes(2) != 7 {
		t.Errorf("Len=%d QueuedBytes(2)=%v", s.Len(), s.QueuedBytes(2))
	}
	if got, _ := s.Dequeue(0); got != p1 {
		t.Error("FIFO violated")
	}
	if got, _ := s.Dequeue(0); got != p2 {
		t.Error("FIFO violated")
	}
	if _, ok := s.Dequeue(0); ok {
		t.Error("empty FIFO dequeued")
	}
}

// TestPriorityStrictOrder: the lower flow id always goes first, whatever
// the weights and arrival order, and each flow stays FIFO.
func TestPriorityStrictOrder(t *testing.T) {
	s := sched.MustNew("priority")
	addFlows(t, s, map[int]float64{1: 1, 2: 1000})
	pLo := &sched.Packet{Flow: 2, Length: 10}
	pLo2 := &sched.Packet{Flow: 2, Length: 1}
	pHi := &sched.Packet{Flow: 1, Length: 10}
	for _, p := range []*sched.Packet{pLo, pLo2, pHi} {
		if err := s.Enqueue(0, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []*sched.Packet{pHi, pLo, pLo2} {
		if got, _ := s.Dequeue(0); got != want {
			t.Errorf("dequeue %d: flow %d length %v, want flow %d length %v", i, got.Flow, got.Length, want.Flow, want.Length)
		}
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
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
