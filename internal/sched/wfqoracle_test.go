package sched_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fairness"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// TestWFQOracleFixesExample2: with a perfect C(t) oracle, WFQ recovers
// fairness on the Example 2 server — the §1.2 "it may be possible to
// extend WFQ" remark — while standard WFQ starves the late flow.
func TestWFQOracleFixesExample2(t *testing.T) {
	const c = 10.0
	rateAt := func(tt float64) float64 {
		if tt < 1 {
			return 1
		}
		return c
	}
	mkArr := func() []schedtest.Arrival {
		var a []schedtest.Arrival
		for i := 0; i < int(c)+1; i++ {
			a = append(a, schedtest.Arrival{At: 0, Flow: 1, Bytes: 1})
		}
		for i := 0; i < int(c)+1; i++ {
			a = append(a, schedtest.Arrival{At: 1, Flow: 2, Bytes: 1})
		}
		return a
	}
	s := sched.NewWFQOracle(rateAt, 1e-3)
	addFlows(t, s, map[int]float64{1: 1, 2: 1})
	res := schedtest.Drive(s, server.NewPiecewise([]float64{0, 1}, []float64{1, c}), mkArr())
	recs := res.Mon.ServiceRecords()
	wf := fairness.NormalizedThroughput(recs, 1, 1, 1, 2)
	wm := fairness.NormalizedThroughput(recs, 2, 1, 1, 2)
	// Fair split within about a packet of C/2 each.
	if wf < c/2-1.5 || wm < c/2-1.5 {
		t.Errorf("oracle WFQ split %v/%v, want ≈ %v each", wf, wm, c/2)
	}
}

// TestWFQOracleMatchesWFQOnConstantRate: with a constant rate function
// the oracle reduces to ordinary WFQ.
func TestWFQOracleMatchesWFQOnConstantRate(t *testing.T) {
	const c = 1000.0
	arr := []schedtest.Arrival{
		{At: 0, Flow: 1, Bytes: 300},
		{At: 0, Flow: 2, Bytes: 100},
		{At: 0.1, Flow: 1, Bytes: 200},
		{At: 0.35, Flow: 2, Bytes: 250},
	}
	run := func(s sched.Interface) []int {
		addFlows(t, s, map[int]float64{1: 400, 2: 600})
		res := schedtest.Drive(s, server.NewConstantRate(c), arr)
		var order []int
		for _, r := range res.Mon.ServiceRecords() {
			order = append(order, r.Flow)
		}
		return order
	}
	a := run(sched.MustNew("wfq", sched.WithAssumedCapacity(c)))
	b := run(sched.NewWFQOracle(func(float64) float64 { return c }, 1e-3))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("service order diverges at %d: %v vs %v", i, a, b)
		}
	}
}

// TestWFQOracleBookkeeping covers removal and validation paths.
func TestWFQOracleBookkeeping(t *testing.T) {
	s := sched.NewWFQOracle(func(float64) float64 { return 100 }, 1e-3)
	addFlows(t, s, map[int]float64{1: 100})
	if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveFlow(1); err == nil {
		t.Error("fluid-backlogged removal accepted")
	}
	s.Dequeue(0)
	s.Dequeue(5) // fluid drains by v = 1 (t = 1)
	if err := s.RemoveFlow(1); err != nil {
		t.Errorf("RemoveFlow: %v", err)
	}
	// The oracle assumes no capacity: there is none to set.
	if err := s.SetCapacity(100); !errors.Is(err, sched.ErrNoCapacityKnob) {
		t.Errorf("SetCapacity = %v, want ErrNoCapacityKnob", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("nil rate function accepted")
		}
	}()
	sched.NewWFQOracle(nil, 1)
}

// TestWFQOracleSnapshot: the oracle snapshots as a rank discipline of its
// own — fluid state included — restores into a fresh oracle as a fixed
// point, and is refused by WFQ, whose fluid system runs at a capacity.
func TestWFQOracleSnapshot(t *testing.T) {
	rate := func(float64) float64 { return 100 }
	s := sched.NewWFQOracle(rate, 1e-3)
	addFlows(t, s, map[int]float64{1: 100, 2: 300})
	for i, f := range []int{1, 2, 1, 2, 2} {
		if err := s.Enqueue(float64(i)*0.1, &sched.Packet{Flow: f, Length: 50}); err != nil {
			t.Fatal(err)
		}
	}
	s.Dequeue(0.5)
	if kind := s.StateKind(); kind != "rank/wfq-oracle" {
		t.Errorf("StateKind = %q", kind)
	}
	data, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := sched.NewWFQOracle(rate, 1e-3)
	if err := r.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.AppendState(nil); !bytes.Equal(again, data) {
		t.Errorf("restore is not a fixed point:\n%s\n%s", again, data)
	}
	if err := sched.MustNew("wfq", sched.WithAssumedCapacity(100)).(*sched.Ranked).RestoreState(data); !errors.Is(err, sched.ErrBadState) {
		t.Errorf("oracle state into WFQ = %v, want ErrBadState", err)
	}
}
