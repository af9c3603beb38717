package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// eddSink attaches a Delay EDD sink class under h's root, routes flows into
// it and then gives each its delay bound on the class's discipline — the
// parameter the tree's weight-only AddFlowTo cannot carry.
func eddSink(t *testing.T, h *core.HSFQ, name string, weight float64, flows map[int][2]float64) {
	t.Helper()
	cls, err := h.NewSinkClass(nil, name, weight, "edd", sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for f, rd := range flows {
		if err := h.AddFlowTo(cls, f, rd[0]); err != nil {
			t.Fatal(err)
		}
		if err := cls.Disc().(sched.EDD).AddFlowDeadline(f, rd[0], rd[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDelegateEDDOrdering: inside a class handed to another discipline
// packets follow that discipline's (Delay EDD) order, not SFQ tags.
func TestDelegateEDDOrdering(t *testing.T) {
	h := core.NewHSFQ()
	eddSink(t, h, "rt", 1, map[int][2]float64{1: {100, 0.5}, 2: {100, 0.05}})
	// Flow 1 arrives first, but flow 2 has the tighter deadline.
	p1 := &sched.Packet{Flow: 1, Length: 100}
	p2 := &sched.Packet{Flow: 2, Length: 100}
	if err := h.Enqueue(0, p1); err != nil {
		t.Fatal(err)
	}
	if err := h.Enqueue(0, p2); err != nil {
		t.Fatal(err)
	}
	got, ok := h.Dequeue(0)
	if !ok || got != p2 {
		t.Error("EDD class should serve the tighter deadline first")
	}
	got, ok = h.Dequeue(0)
	if !ok || got != p1 {
		t.Error("second packet should follow")
	}
	if _, ok := h.Dequeue(0); ok {
		t.Error("phantom packet")
	}
	if h.Len() != 0 || h.QueuedBytes(1) != 0 {
		t.Error("bookkeeping")
	}
}

// TestDelegateClassGetsWeightedShare: the class competes with sibling
// classes under SFQ with its weight, regardless of its internal order.
func TestDelegateClassGetsWeightedShare(t *testing.T) {
	h := core.NewHSFQ()
	eddSink(t, h, "rt", 250, map[int][2]float64{1: {250, 0.1}})
	if err := h.AddFlowTo(nil, 2, 750); err != nil {
		t.Fatal(err)
	}
	var arr []schedtest.Arrival
	for i := 0; i < 200; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 1, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 2, Bytes: 100})
	}
	res := schedtest.Drive(h, server.NewConstantRate(1000), arr)
	joint := fairness.Intersect(res.Mon.BackloggedIntervals(1), res.Mon.BackloggedIntervals(2))
	iv := joint[0]
	w1 := res.Mon.ServiceCurve(1).Delta(iv.Start, iv.End)
	w2 := res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End)
	if r := w2 / w1; r < 2.5 || r > 3.5 {
		t.Errorf("class share ratio = %v, want ≈ 3", r)
	}
}

// TestDelegateTheorem7Separation is the §3 separation result end to end:
// two flows inside a Delay EDD class get *different* delay bounds
// (deadline-driven) while drawing from the class's FC-guaranteed
// bandwidth (eq 65), independent of their throughputs.
func TestDelegateTheorem7Separation(t *testing.T) {
	const (
		c       = 10000.0
		clsRate = 6000.0
	)
	h := core.NewHSFQ()
	// Same rate, very different deadlines: delay decoupled from
	// throughput.
	eddSink(t, h, "sep", clsRate, map[int][2]float64{1: {3000, 0.05}, 2: {3000, 0.4}})
	if err := h.AddFlowTo(nil, 3, c-clsRate); err != nil {
		t.Fatal(err)
	}

	var arr []schedtest.Arrival
	// The class's flows at their reserved rates; flow 3 saturates its share.
	for i := 0; i < 120; i++ {
		arr = append(arr, schedtest.Arrival{At: float64(i) / 30.0, Flow: 1, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: float64(i) / 30.0, Flow: 2, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: float64(i) / 30.0, Flow: 3, Bytes: 130})
	}
	res := schedtest.Drive(h, server.NewConstantRate(c), arr)

	// The class's virtual server per eq (65): rate 6000, burst folded in.
	classFC := qos.SFQThroughputFC(server.FCParams{C: c}, clsRate, 100, 230)
	// Theorem 7 at the class level: deadline + lmax/C' + δ'/C'.
	recs := res.Mon.ServiceRecords()
	for f, d := range map[int]float64{1: 0.05, 2: 0.4} {
		chain := qos.EAT{}
		bound := 0.0
		idx := 0
		for _, rec := range recs {
			if rec.Flow != f {
				continue
			}
			eat := chain.Next(float64(idx)/30.0, rec.Bytes, 3000)
			bound = qos.EDDDelayBound(classFC, eat+d, 100)
			if rec.End > bound+1e-9 {
				t.Errorf("flow %d packet %d finishes %v after Theorem 7 bound %v", f, idx, rec.End, bound)
			}
			idx++
		}
	}
}

// TestDelegateValidation covers the error paths of handing a class to
// another discipline.
func TestDelegateValidation(t *testing.T) {
	h := core.NewHSFQ()
	if _, err := h.NewSinkClass(nil, "x", 1, "no-such-discipline", sched.Config{}); err == nil {
		t.Error("unknown discipline accepted")
	}
	if _, err := h.NewSinkClass(nil, "x", 0, "fifo", sched.Config{}); err == nil {
		t.Error("zero weight accepted")
	}
	cls, err := h.NewSinkClass(nil, "x", 1, "fifo", sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewSinkClass(cls, "y", 1, "fifo", sched.Config{}); err == nil {
		t.Error("class under a sink accepted")
	}
	if err := h.AddFlowTo(cls, 5, 0); err == nil {
		t.Error("zero flow weight accepted")
	}
	if err := h.AddFlowTo(cls, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddFlowTo(cls, 5, 1); err == nil {
		t.Error("duplicate flow accepted")
	}
	// Removal of a sink's flow goes through its discipline.
	if err := h.RemoveFlow(5); err != nil {
		t.Errorf("removal: %v", err)
	}
	if err := h.RemoveFlow(5); err == nil {
		t.Error("double removal accepted")
	}
}
