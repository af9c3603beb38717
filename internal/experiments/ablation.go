package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
	"repro/internal/units"
)

// AblationTieBreak quantifies the §2.3 remark that the tie-breaking rule,
// while irrelevant to the delay *guarantee*, can lower interactive flows'
// average delay: a low-rate interactive flow competes with bulk flows
// whose packets repeatedly tie on start tags (all flows resume from the
// same virtual time), under FIFO ties vs low-weight-first ties.
func AblationTieBreak(seed int64) *Result {
	r := newResult("ablation-tie", "ablation §2.3 — tie-breaking rule vs interactive delay")

	const (
		c   = 10000.0
		pkt = 500.0
	)
	run := func(tie core.TieBreak) float64 {
		s := core.NewTie(tie)
		// Interactive flow 1 (low weight) + three bulk flows.
		if err := s.AddFlow(1, 500); err != nil {
			panic(err)
		}
		for f := 2; f <= 4; f++ {
			if err := s.AddFlow(f, 3000); err != nil {
				panic(err)
			}
		}
		var arr []schedtest.Arrival
		// Synchronized rounds: every 250 ms the link drains fully, then
		// all flows arrive together — their start tags tie at the
		// busy-period-end virtual time. Offered load (2000 B per 250 ms
		// round) stays below capacity so every round starts from idle.
		for round := 0; round < 60; round++ {
			t := float64(round) * 0.25
			// The interactive packet arrives last in the round, so FIFO
			// tie-breaking puts it at the back of the tie.
			for f := 2; f <= 4; f++ {
				arr = append(arr, schedtest.Arrival{At: t, Flow: f, Bytes: pkt})
			}
			arr = append(arr, schedtest.Arrival{At: t, Flow: 1, Bytes: pkt})
		}
		res := schedtest.Drive(s, server.NewConstantRate(c), arr)
		return res.Mon.QueueDelay(1).Mean()
	}

	fifo := run(core.TieFIFO)
	loww := run(core.TieLowWeightFirst)
	r.addf("interactive avg delay: FIFO ties %.2f ms, low-weight-first ties %.2f ms (%.0f%% lower)",
		units.ToMillis(fifo), units.ToMillis(loww), (1-loww/fifo)*100)
	r.set("fifo_ms", units.ToMillis(fifo))
	r.set("lowweight_ms", units.ToMillis(loww))
	return r
}

// AblationWFQClock asks whether WFQ's variable-rate unfairness (Example 2)
// is just mis-calibration: it reruns the Example 2 scenario with the
// fluid clock calibrated to the assumed capacity C, to the long-run mean
// rate, and to half the mean — versus SFQ. No constant calibration fixes
// it, because the failure is structural: the fluid system cannot track a
// fluctuating service rate, which is the argument for self-clocking.
func AblationWFQClock(seed int64) *Result {
	r := newResult("ablation-clock", "ablation — can calibrating WFQ's fluid clock replace self-clocking?")

	const c = 10.0 // Example 2's assumed capacity (pkts/s, unit packets)
	mean := (1.0*1 + c*1) / 2
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
	oracleRate := func(tt float64) float64 {
		if tt < 1 {
			return 1
		}
		return c
	}
	cases := []struct {
		name string
		mk   func() sched.Interface
	}{
		{"WFQ@assumed", func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(c)) }},
		{"WFQ@mean", func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(mean)) }},
		{"WFQ@half-mean", func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(mean/2)) }},
		// The oracle-rate variant takes a rate *function* — outside the
		// registry's Config surface, so it stays on the direct constructor.
		{"WFQ@oracle", func() sched.Interface { return sched.NewWFQOracle(oracleRate, 1e-3) }},
		{"SFQ", func() sched.Interface { return sched.MustNew("sfq") }},
	}
	for _, tc := range cases {
		s := tc.mk()
		if err := s.AddFlow(1, 1); err != nil {
			panic(err)
		}
		if err := s.AddFlow(2, 1); err != nil {
			panic(err)
		}
		proc := server.NewPiecewise([]float64{0, 1}, []float64{1, c})
		res := schedtest.Drive(s, proc, mkArr())
		recs := res.Mon.ServiceRecords()
		wf := fairness.NormalizedThroughput(recs, 1, 1, 1, 2)
		wm := fairness.NormalizedThroughput(recs, 2, 1, 1, 2)
		r.addf("%-14s W_f(1,2)=%4.1f  W_m(1,2)=%4.1f  (fair: %.1f each)", tc.name, wf, wm, c/2)
		r.set("Wm_"+tc.name, wm)
	}
	r.addf("no constant clock calibration recovers fairness; a perfect C(t) oracle does —")
	r.addf("but needs numerical integration of an unknowable rate; SFQ self-clocks for free")
	_ = seed
	return r
}

// AblationHierarchyOverhead compares a flat SFQ against a semantically
// equivalent two-level HSFQ (every flow wrapped in its own class with the
// same weight): throughput split and fairness must match, bounding the
// semantic cost of the hierarchy at one packet per level.
func AblationHierarchyOverhead(seed int64) *Result {
	r := newResult("ablation-hier", "ablation §3 — flat SFQ vs degenerate hierarchy")

	weights := []float64{100, 300, 600}
	const lmax = 300.0
	run := func(useTree bool) (ratios [2]float64, h float64) {
		var s sched.Interface
		if useTree {
			t := core.NewHSFQ()
			for i, w := range weights {
				cls, err := t.NewClass(nil, fmt.Sprintf("wrap%d", i), w)
				if err != nil {
					panic(err)
				}
				if err := t.AddFlowTo(cls, i+1, w); err != nil {
					panic(err)
				}
			}
			s = t
		} else {
			f := core.New()
			for i, w := range weights {
				if err := f.AddFlow(i+1, w); err != nil {
					panic(err)
				}
			}
			s = f
		}
		rng := rand.New(rand.NewSource(seed))
		flows := make([]schedtest.FlowSpec, len(weights))
		for i, w := range weights {
			flows[i] = schedtest.FlowSpec{Flow: i + 1, Weight: w, MaxBytes: lmax}
		}
		res := schedtest.Drive(s, server.NewConstantRate(1000), schedtest.RandomBacklogged(rng, flows, 150))
		// Compare over the interval where all three flows are backlogged.
		joint := fairness.Intersect(
			fairness.Intersect(res.Mon.BackloggedIntervals(1), res.Mon.BackloggedIntervals(2)),
			res.Mon.BackloggedIntervals(3))
		iv := joint[0]
		w1 := res.Mon.ServiceCurve(1).Delta(iv.Start, iv.End)
		ratios[0] = res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End) / w1
		ratios[1] = res.Mon.ServiceCurve(3).Delta(iv.Start, iv.End) / w1
		h = fairness.MonitorUnfairness(res.Mon, 1, 3, weights[0], weights[2])
		return ratios, h
	}
	flatR, flatH := run(false)
	treeR, treeH := run(true)
	r.addf("flat SFQ:        ratios 1 : %.2f : %.2f   H(1,3) = %.1f", flatR[0], flatR[1], flatH)
	r.addf("degenerate tree: ratios 1 : %.2f : %.2f   H(1,3) = %.1f", treeR[0], treeR[1], treeH)
	r.set("flat_r31", flatR[1])
	r.set("tree_r31", treeR[1])
	r.set("flat_H", flatH)
	r.set("tree_H", treeH)
	return r
}
