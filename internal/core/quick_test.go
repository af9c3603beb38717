package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/hier"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// TestQuickHSFQConservation: random trees, random traffic — every packet
// comes out exactly once, per-flow FIFO, counters return to zero.
func TestQuickHSFQConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random tree: up to 3 interior classes, 2-5 flows attached
		// randomly to root or a class.
		root := sfqClass("", 0)
		classes := []*hier.Spec{root}
		for i := 0; i < rng.Intn(3); i++ {
			parent := root
			if len(classes) > 1 && rng.Intn(2) == 0 {
				parent = classes[1+rng.Intn(len(classes)-1)]
			}
			c := sfqClass(fmt.Sprintf("c%d", i), 1+rng.Float64()*9)
			parent.Children = append(parent.Children, c)
			classes = append(classes, c)
		}
		nf := 2 + rng.Intn(4)
		for fl := 1; fl <= nf; fl++ {
			parent := root
			if len(classes) > 1 && rng.Intn(2) == 0 {
				parent = classes[1+rng.Intn(len(classes)-1)]
			}
			parent.Children = append(parent.Children, flowLeaf(fl, 1+rng.Float64()*100))
		}
		h, err := hier.Build(root, sched.Config{})
		if err != nil {
			return false
		}
		sent := map[int][]int64{}
		got := map[int][]int64{}
		var seqs [8]int64
		now := 0.0
		for i := 0; i < 200; i++ {
			now += rng.Float64() * 0.01
			if rng.Intn(5) < 3 {
				fl := 1 + rng.Intn(nf)
				seqs[fl]++
				p := &sched.Packet{Flow: fl, Seq: seqs[fl], Length: 1 + rng.Float64()*200}
				if err := h.Enqueue(now, p); err != nil {
					return false
				}
				sent[fl] = append(sent[fl], seqs[fl])
			} else if p, ok := h.Dequeue(now); ok {
				got[p.Flow] = append(got[p.Flow], p.Seq)
			}
		}
		for {
			p, ok := h.Dequeue(now)
			if !ok {
				break
			}
			got[p.Flow] = append(got[p.Flow], p.Seq)
		}
		if h.Len() != 0 {
			return false
		}
		for fl := 1; fl <= nf; fl++ {
			if h.QueuedBytes(fl) != 0 {
				return false
			}
			if len(sent[fl]) != len(got[fl]) {
				return false
			}
			for i := range sent[fl] {
				if sent[fl][i] != got[fl][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickHSFQSiblingFairness: random sibling weights under a random
// variable-rate server — jointly backlogged siblings split within the
// Theorem 1 bound (applied at their level with their weights).
func TestQuickHSFQSiblingFairness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w1 := 1 + rng.Float64()*9
		w2 := 1 + rng.Float64()*9
		h, err := hier.Build(sfqClass("", 0, sfqClass("a", w1, flowLeaf(1, w1)), sfqClass("b", w2, flowLeaf(2, w2))), sched.Config{})
		if err != nil {
			return false
		}
		lmax := 100 + rng.Float64()*300
		flows := []schedtest.FlowSpec{
			{Flow: 1, Weight: w1, MaxBytes: lmax},
			{Flow: 2, Weight: w2, MaxBytes: lmax},
		}
		proc := server.NewPeriodicOnOff(500+rng.Float64()*1500, 0.02+rng.Float64()*0.08)
		res := schedtest.Drive(h, proc, schedtest.RandomBacklogged(rng, flows, 120))
		hmeas := fairness.MonitorUnfairness(res.Mon, 1, 2, w1, w2)
		// The class level sees the packet of its single flow, so the
		// Theorem 1 bound applies with (lmax, w1), (lmax, w2).
		return hmeas <= qos.SFQFairnessBound(lmax, w1, lmax, w2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickSFQFairnessRandomServers is the headline Theorem 1 property:
// random weights, random packet-size caps, random *server model* — the
// bound holds every time.
func TestQuickSFQFairnessRandomServers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := core.New()
		w1 := 10 + rng.Float64()*990
		w2 := 10 + rng.Float64()*990
		l1 := 50 + rng.Float64()*450
		l2 := 50 + rng.Float64()*450
		if err := s.AddFlow(1, w1); err != nil {
			return false
		}
		if err := s.AddFlow(2, w2); err != nil {
			return false
		}
		var proc server.Process
		switch rng.Intn(4) {
		case 0:
			proc = server.NewConstantRate(100 + rng.Float64()*2000)
		case 1:
			proc = server.NewPeriodicOnOff(100+rng.Float64()*2000, 0.01+rng.Float64()*0.1)
		case 2:
			proc = server.NewRandomSlotted(100+rng.Float64()*2000, 0.005+rng.Float64()*0.02,
				rand.New(rand.NewSource(seed+1)))
		default:
			proc = server.NewMarkovModulated(
				[]float64{100 + rng.Float64()*500, 500 + rng.Float64()*1500}, 0.05,
				rand.New(rand.NewSource(seed+2)))
		}
		flows := []schedtest.FlowSpec{
			{Flow: 1, Weight: w1, MaxBytes: l1},
			{Flow: 2, Weight: w2, MaxBytes: l2},
		}
		res := schedtest.Drive(s, proc, schedtest.RandomBacklogged(rng, flows, 120))
		hmeas := fairness.MonitorUnfairness(res.Mon, 1, 2, w1, w2)
		return hmeas <= qos.SFQFairnessBound(l1, w1, l2, w2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickGeneralizedRates: with random per-packet rates (eq 36), finish
// tags always satisfy F = S + l/r_pkt and per-flow tags stay monotone.
func TestQuickGeneralizedRates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := core.New()
		if err := s.AddFlow(1, 100); err != nil {
			return false
		}
		prevStart := -1.0
		now := 0.0
		for i := 0; i < 60; i++ {
			now += rng.Float64() * 0.01
			rate := 50 + rng.Float64()*1000
			l := 1 + rng.Float64()*300
			p := &sched.Packet{Flow: 1, Length: l, Rate: rate}
			if err := s.Enqueue(now, p); err != nil {
				return false
			}
			if p.VirtualFinish != p.VirtualStart+l/rate {
				return false
			}
			if p.VirtualStart < prevStart {
				return false
			}
			prevStart = p.VirtualStart
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
