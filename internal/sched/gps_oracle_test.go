package sched_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// fluidOracle is a brute-force fluid GPS simulator used as a correctness
// oracle for WFQ's event-driven virtual time: it integrates eq (3) with a
// tiny fixed time step, serving every backlogged flow in proportion to its
// weight at total rate C and tracking the round number v(t) directly.
type fluidOracle struct {
	c       float64
	weights map[int]float64

	v       float64
	lastT   float64
	backlog map[int]float64 // remaining fluid work per flow, in tag units (bytes/weight)
}

func newFluidOracle(c float64, weights map[int]float64) *fluidOracle {
	return &fluidOracle{c: c, weights: weights, backlog: make(map[int]float64)}
}

// arrive adds a packet's fluid work. Work is tracked in virtual units
// (l/r), which makes every backlogged flow drain at the same virtual
// speed dv/dt.
func (o *fluidOracle) arrive(flow int, length float64) {
	o.backlog[flow] += length / o.weights[flow]
}

// advance integrates the fluid system by dt seconds in steps.
func (o *fluidOracle) advance(dt float64) {
	const step = 1e-4
	remaining := dt
	for remaining > 1e-12 {
		h := math.Min(step, remaining)
		sumW := 0.0
		for f, w := range o.backlog {
			if w > 1e-12 {
				sumW += o.weights[f]
			}
		}
		if sumW == 0 {
			// Idle: v frozen (matches the event-driven implementation).
			return
		}
		dv := h * o.c / sumW
		// The flow with the least remaining virtual work may finish
		// mid-step; cap dv at that departure to keep B(t) exact.
		minLeft := math.Inf(1)
		for _, left := range o.backlog {
			if left > 1e-12 && left < minLeft {
				minLeft = left
			}
		}
		if dv > minLeft {
			dv = minLeft
			h = dv * sumW / o.c
		}
		for f, left := range o.backlog {
			if left > 1e-12 {
				o.backlog[f] = left - dv
			}
		}
		o.v += dv
		remaining -= h
	}
}

// TestWFQVirtualTimeMatchesFluidOracle drives random arrival patterns
// through both the event-driven GPS of the WFQ implementation and the
// brute-force fluid oracle and compares v(t) at every arrival instant.
func TestWFQVirtualTimeMatchesFluidOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const c = 1000.0
		weights := map[int]float64{1: 100, 2: 300, 3: 600}
		wfq := sched.MustNew("wfq", sched.WithAssumedCapacity(c)).(*sched.Ranked)
		for f, w := range weights {
			if err := wfq.AddFlow(f, w); err != nil {
				t.Fatal(err)
			}
		}
		oracle := newFluidOracle(c, weights)

		now := 0.0
		for i := 0; i < 60; i++ {
			now += rng.Float64() * 0.5
			flow := 1 + rng.Intn(3)
			length := 50 + rng.Float64()*450

			oracle.advance(now - oracle.lastT)
			oracle.lastT = now

			p := &sched.Packet{Flow: flow, Length: length}
			if err := wfq.Enqueue(now, p); err != nil {
				t.Fatal(err)
			}
			oracle.arrive(flow, length)

			if d := math.Abs(wfq.V() - oracle.v); d > 1e-3*(1+oracle.v) {
				t.Fatalf("seed %d step %d t=%v: WFQ v=%v oracle v=%v (Δ=%v)",
					seed, i, now, wfq.V(), oracle.v, d)
			}
		}
	}
}
