package core_test

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

// TestHSFQFlatMatchesWeights: with all flows directly under the root, HSFQ
// behaves like flat SFQ — weighted shares and the Theorem 1 bound hold.
func TestHSFQFlatMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := sched.MustNew("hsfq")
	mustAdd(t, h, 1, 100)
	mustAdd(t, h, 2, 300)
	flows := []schedtest.FlowSpec{
		{Flow: 1, Weight: 100, MaxBytes: 400},
		{Flow: 2, Weight: 300, MaxBytes: 400},
	}
	res := schedtest.Drive(h, server.NewConstantRate(1000), schedtest.RandomBacklogged(rng, flows, 200))
	joint := fairness.Intersect(res.Mon.BackloggedIntervals(1), res.Mon.BackloggedIntervals(2))
	iv := joint[0]
	w1 := res.Mon.ServiceCurve(1).Delta(iv.Start, iv.End)
	w2 := res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End)
	if r := w2 / w1; r < 2.5 || r > 3.5 {
		t.Errorf("flat HSFQ ratio = %v, want ≈ 3", r)
	}
	hmeas := fairness.MonitorUnfairness(res.Mon, 1, 2, 100, 300)
	bound := qos.SFQFairnessBound(400, 100, 400, 300)
	if hmeas > bound+1e-9 {
		t.Errorf("H = %v exceeds bound %v", hmeas, bound)
	}
}

// TestExample3Hierarchy reproduces Example 3: classes A (with subclasses
// C, D) and B under the root, all weight 1. While B is idle, A's
// subclasses C and D share the whole link evenly; when B activates, A's
// share halves and C and D must still split A's (now fluctuating)
// bandwidth evenly — the property that requires fairness over variable
// rate servers.
func TestExample3Hierarchy(t *testing.T) {
	h := mustBuild(t, sfqClass("", 0,
		sfqClass("A", 1, flowLeaf(3, 1), flowLeaf(4, 1)), // C, D
		flowLeaf(2, 1), // class B as a leaf flow
	))

	const c = 1000.0
	var arr []schedtest.Arrival
	// C and D backlogged from t=0; B from t=5. Unit 100 B packets.
	for i := 0; i < 150; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 3, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 4, Bytes: 100})
	}
	for i := 0; i < 60; i++ {
		arr = append(arr, schedtest.Arrival{At: 5, Flow: 2, Bytes: 100})
	}
	res := schedtest.Drive(h, server.NewConstantRate(c), arr)

	// Phase 1 [0,5): B idle; C and D each get ≈ C/2.
	wc1 := res.Mon.ServiceCurve(3).Delta(0, 5)
	wd1 := res.Mon.ServiceCurve(4).Delta(0, 5)
	if wc1 < 2200 || wc1 > 2800 || wd1 < 2200 || wd1 > 2800 {
		t.Errorf("phase 1: C=%v D=%v, want ≈ 2500 each", wc1, wd1)
	}

	// Phase 2 [5,11): B active; B ≈ C/2, C and D ≈ C/4 each AND equal.
	wb2 := res.Mon.ServiceCurve(2).Delta(5, 11)
	wc2 := res.Mon.ServiceCurve(3).Delta(5, 11)
	wd2 := res.Mon.ServiceCurve(4).Delta(5, 11)
	if wb2 < 2600 || wb2 > 3400 {
		t.Errorf("phase 2: B=%v, want ≈ 3000", wb2)
	}
	if wc2 < 1200 || wc2 > 1800 || wd2 < 1200 || wd2 > 1800 {
		t.Errorf("phase 2: C=%v D=%v, want ≈ 1500 each", wc2, wd2)
	}
	// The heart of Example 3: C and D stay fair to each other even
	// though class A's bandwidth halved.
	hmeas := fairness.MonitorUnfairness(res.Mon, 3, 4, 1, 1)
	if hmeas > 200+1e-9 { // Theorem 1 with l=100, r=1: 100+100
		t.Errorf("C/D unfairness %v exceeds bound 200", hmeas)
	}
}

// TestHSFQDeepTree: three-level tree with uneven weights delivers the
// composed shares.
func TestHSFQDeepTree(t *testing.T) {
	h := mustBuild(t, sfqClass("", 0,
		sfqClass("best-effort", 1,
			sfqClass("interactive", 1, flowLeaf(3, 1)), // 1/4 of 1/4
			flowLeaf(2, 3), // 3/4 of 1/4
		),
		sfqClass("real-time", 3, flowLeaf(1, 1)), // 3/4 of link
	))

	var arr []schedtest.Arrival
	for i := 0; i < 400; i++ {
		for f := 1; f <= 3; f++ {
			arr = append(arr, schedtest.Arrival{At: 0, Flow: f, Bytes: 50})
		}
	}
	res := schedtest.Drive(h, server.NewConstantRate(1000), arr)
	// Measure over [0, T] where all three still backlogged: flow 3
	// empties last; use flow1's backlog end as the common window.
	end := res.Mon.BackloggedIntervals(1)[0].End
	w1 := res.Mon.ServiceCurve(1).Delta(0, end)
	w2 := res.Mon.ServiceCurve(2).Delta(0, end)
	w3 := res.Mon.ServiceCurve(3).Delta(0, end)
	tot := w1 + w2 + w3
	check := func(name string, got, wantFrac float64) {
		frac := got / tot
		if frac < wantFrac-0.05 || frac > wantFrac+0.05 {
			t.Errorf("%s share = %.3f, want ≈ %.3f", name, frac, wantFrac)
		}
	}
	check("flow1 (real-time)", w1, 0.75)
	check("flow2 (bulk)", w2, 0.1875)
	check("flow3 (interactive)", w3, 0.0625)
}

// TestHSFQBusyIdleCycles: activation bookkeeping across idle periods.
func TestHSFQBusyIdleCycles(t *testing.T) {
	h := mustBuild(t, sfqClass("", 0, sfqClass("a", 1, flowLeaf(1, 1)), flowLeaf(2, 1)))
	for cycle := 0; cycle < 5; cycle++ {
		base := float64(cycle) * 10
		p1 := &sched.Packet{Flow: 1, Length: 100}
		p2 := &sched.Packet{Flow: 2, Length: 100}
		if err := h.Enqueue(base, p1); err != nil {
			t.Fatal(err)
		}
		if err := h.Enqueue(base, p2); err != nil {
			t.Fatal(err)
		}
		if h.Len() != 2 {
			t.Fatalf("cycle %d: Len = %d", cycle, h.Len())
		}
		if _, ok := h.Dequeue(base); !ok {
			t.Fatal("dequeue 1")
		}
		if _, ok := h.Dequeue(base + 1); !ok {
			t.Fatal("dequeue 2")
		}
		if _, ok := h.Dequeue(base + 2); ok {
			t.Fatal("queue should be empty")
		}
	}
}

// TestHSFQErrors covers the validation paths.
func TestHSFQErrors(t *testing.T) {
	for name, sp := range map[string]*hier.Spec{
		"zero-weight class":    sfqClass("", 0, sfqClass("x", 0, flowLeaf(1, 1))),
		"negative-weight flow": sfqClass("", 0, flowLeaf(1, -1)),
		"duplicate flow":       sfqClass("", 0, flowLeaf(1, 1), sfqClass("x", 1, flowLeaf(1, 1))),
	} {
		if _, err := hier.Build(sp, sched.Config{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	h := sched.MustNew("hsfq")
	if err := h.AddFlow(1, -1); err == nil {
		t.Error("negative-weight flow accepted")
	}
	mustAdd(t, h, 1, 1)
	if err := h.Enqueue(0, &sched.Packet{Flow: 99, Length: 1}); err == nil {
		t.Error("unknown flow accepted")
	}
	if err := h.Enqueue(0, &sched.Packet{Flow: 1, Length: 0}); err == nil {
		t.Error("empty packet accepted")
	}
	if err := h.Enqueue(0, &sched.Packet{Flow: 1, Length: 10}); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveFlow(1); err == nil {
		t.Error("removal of backlogged flow accepted")
	}
	h.Dequeue(0)
	if err := h.RemoveFlow(1); err != nil {
		t.Errorf("RemoveFlow: %v", err)
	}
	if err := h.RemoveFlow(1); err == nil {
		t.Error("double removal accepted")
	}
}

// TestHSFQVariableRateFairness: sibling fairness under a fluctuating link
// (the property Example 3 needs, checked directly at the root level).
func TestHSFQVariableRateFairness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := mustBuild(t, sfqClass("", 0, sfqClass("a", 1, flowLeaf(1, 1)), sfqClass("b", 1, flowLeaf(2, 1))))
	flows := []schedtest.FlowSpec{
		{Flow: 1, Weight: 1, MaxBytes: 300},
		{Flow: 2, Weight: 1, MaxBytes: 300},
	}
	res := schedtest.Drive(h, server.NewPeriodicOnOff(1000, 0.05), schedtest.RandomBacklogged(rng, flows, 200))
	joint := fairness.Intersect(res.Mon.BackloggedIntervals(1), res.Mon.BackloggedIntervals(2))
	iv := joint[0]
	w1 := res.Mon.ServiceCurve(1).Delta(iv.Start, iv.End)
	w2 := res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End)
	if r := w1 / w2; r < 0.85 || r > 1.18 {
		t.Errorf("sibling classes on variable-rate link: ratio %v, want ≈ 1", r)
	}
}

// sfqClass is a native SFQ class over children; flowLeaf is a flow's leaf.
func sfqClass(name string, weight float64, children ...*hier.Spec) *hier.Spec {
	return &hier.Spec{Name: "sfq", Class: name, Weight: weight, Children: children}
}

func flowLeaf(flow int, weight float64) *hier.Spec {
	return &hier.Spec{IsFlow: true, Flow: flow, Weight: weight}
}

func mustBuild(t *testing.T, sp *hier.Spec) *hier.Tree {
	t.Helper()
	h, err := hier.Build(sp, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}
