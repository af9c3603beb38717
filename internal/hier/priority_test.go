package hier_test

import (
	"math/rand"
	"testing"

	"repro/internal/fairness"
	"repro/internal/hier"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// priorityTree is strict priority of a FIFO class holding flow 1 over an
// SFQ sink holding flows 2 and 3 at weights w2 and w3: the Fig 1 tree.
func priorityTree(w2, w3 float64) *hier.Tree {
	return mustBuild(&hier.Spec{Name: "priority", Children: []*hier.Spec{
		{Name: "fifo", Weight: 1, Children: []*hier.Spec{flowLeaf(1, 1)}},
		{Name: "pifo-sfq", Weight: 1, Children: []*hier.Spec{flowLeaf(2, w2), flowLeaf(3, w3)}},
	}})
}

// TestPriorityWithSFQChild is the Fig 1 configuration in miniature: a
// FIFO high-priority class over an SFQ low-priority class. The
// low-priority flows must stay fair to each other (Theorem 1 holds on the
// residual, which is exactly the "variable rate server" claim), and the
// high-priority class must see minimal delay.
func TestPriorityWithSFQChild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prio := priorityTree(100, 300)

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

// TestPriorityBusyPeriodEnd pins when a sink learns that its busy period
// is over: at the Dequeue that serves its last packet, not at the link's
// next Dequeue. Flow 2's packet (S = 0, F = 1) is handed out at t = 0 and
// is still in transmission when flow 3's arrives at t = 0.05; the SFQ
// sink's v has already jumped to the maximum finish tag, so the new packet
// starts at 1. Under eq (2)'s rule v would still be the start tag of the
// packet in service, 0, until the transmission completes; under the old
// priority composition's it stayed 0 until a link Dequeue found every
// level empty.
func TestPriorityBusyPeriodEnd(t *testing.T) {
	h := priorityTree(100, 100)
	if err := h.Enqueue(0, &sched.Packet{Flow: 2, Length: 100}); err != nil {
		t.Fatal(err)
	}
	if p, ok := h.Dequeue(0); !ok || p.Flow != 2 || p.VirtualFinish != 1 {
		t.Fatalf("first dequeue: %+v %v, want flow 2 with finish tag 1", p, ok)
	}
	p := &sched.Packet{Flow: 3, Length: 100}
	if err := h.Enqueue(0.05, p); err != nil {
		t.Fatal(err)
	}
	if p.VirtualStart != 1 {
		t.Errorf("packet arriving during the sink's last transmission: start tag %v, want 1 (the sink's max finish tag)", p.VirtualStart)
	}
}
