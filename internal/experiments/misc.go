package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/hier"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
	"repro/internal/units"
)

// SCFQDelay regenerates the §2.3 SCFQ-vs-SFQ comparison: the analytic gap
// of eq (57) at the paper's parameters and a measured worst-case delay on
// a single server, where a 64 Kb/s flow's packets queue behind the
// backlog its own large finish tags create under SCFQ.
func SCFQDelay(seed int64) *Result {
	r := newResult("scfqdelay", "§2.3 — maximum delay, SCFQ vs SFQ")

	kib := func(rate float64) float64 { return rate * 1024 / 8 }
	c := units.Mbps(100)
	gap := qos.SCFQvsSFQDelayGap(c, 200, kib(64))
	r.addf("analytic gap l/r − l/C at r=64Kb/s, l=200B, C=100Mb/s: %.1f ms (paper: 24.4)",
		units.ToMillis(gap))
	r.addf("across K=5 servers: %.0f ms (paper: 122)", units.ToMillis(5*gap))
	r.set("gap_ms", units.ToMillis(gap))
	r.set("gap5_ms", units.ToMillis(5*gap))

	// Empirical single-server comparison (scaled-down rates): one
	// low-rate flow sending isolated packets among nine saturating
	// high-rate flows.
	const (
		cs  = 12500.0 // 100 Kb/s in bytes/s
		pkt = 125.0
		nHi = 9
		iso = 8
	)
	weights := map[int]float64{1: cs / 100}
	for f := 2; f <= nHi+1; f++ {
		weights[f] = (cs - weights[1]) / nHi
	}
	worst := func(s sched.Interface) float64 {
		for f, w := range weights {
			if err := s.AddFlow(f, w); err != nil {
				panic(err)
			}
		}
		var arr []schedtest.Arrival
		for i := 0; i < iso; i++ {
			arr = append(arr, schedtest.Arrival{At: 0.4 + 2.2*float64(i), Flow: 1, Bytes: pkt})
		}
		for f := 2; f <= nHi+1; f++ {
			for i := 0; i < 220; i++ {
				arr = append(arr, schedtest.Arrival{At: float64(i) * 0.085, Flow: f, Bytes: pkt})
			}
		}
		res := schedtest.Drive(s, server.NewConstantRate(cs), arr)
		return res.Mon.QueueDelay(1).Max()
	}
	var d [2]float64 // two independent runs: SFQ, SCFQ
	sweep(len(d), func(i int) {
		if i == 0 {
			d[i] = worst(core.New())
		} else {
			d[i] = worst(sched.MustNew("scfq"))
		}
	})
	dSFQ, dSCFQ := d[0], d[1]
	r.addf("measured worst low-rate delay: SFQ %.1f ms, SCFQ %.1f ms (analytic gap here: %.1f ms)",
		units.ToMillis(dSFQ), units.ToMillis(dSCFQ),
		units.ToMillis(qos.SCFQvsSFQDelayGap(cs, pkt, weights[1])))
	r.set("sfq_worst_ms", units.ToMillis(dSFQ))
	r.set("scfq_worst_ms", units.ToMillis(dSCFQ))
	_ = seed
	return r
}

// Example3 regenerates the Section 3 link-sharing example: classes A
// (with subclasses C and D) and B under the root. While B is idle, C and D
// split the whole link; when B activates, A's bandwidth halves and C and D
// must still split it evenly — which requires fairness over a
// variable-rate (virtual) server.
func Example3() *Result {
	r := newResult("example3", "Example 3 — hierarchical link sharing (classes A{C,D}, B)")

	flow := func(f int) *hier.Spec { return &hier.Spec{IsFlow: true, Flow: f, Weight: 1} }
	h, err := hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "sfq", Class: "A", Weight: 1, Children: []*hier.Spec{flow(3), flow(4)}}, // C, D
		flow(2), // B
	}}, sched.Config{})
	if err != nil {
		panic(err)
	}

	const c = 1000.0
	var arr []schedtest.Arrival
	for i := 0; i < 150; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 3, Bytes: 100})
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 4, Bytes: 100})
	}
	for i := 0; i < 60; i++ {
		arr = append(arr, schedtest.Arrival{At: 5, Flow: 2, Bytes: 100})
	}
	res := schedtest.Drive(h, server.NewConstantRate(c), arr)

	phase := func(name string, t1, t2 float64) {
		wb := res.Mon.ServiceCurve(2).Delta(t1, t2)
		wc := res.Mon.ServiceCurve(3).Delta(t1, t2)
		wd := res.Mon.ServiceCurve(4).Delta(t1, t2)
		r.addf("%-22s B=%6.0f  C=%6.0f  D=%6.0f bytes", name, wb, wc, wd)
		r.set("B_"+name, wb)
		r.set("C_"+name, wc)
		r.set("D_"+name, wd)
	}
	phase("B idle [0,5)", 0, 5)
	phase("B active [5,11)", 5, 11)
	hmeas := fairness.MonitorUnfairness(res.Mon, 3, 4, 1, 1)
	r.addf("C/D unfairness across both phases: %.0f bytes (Theorem 1 bound: 200)", hmeas)
	r.set("H_CD", hmeas)
	r.addf("paper: C and D each get C/2 then C/4; their mutual fairness is preserved")
	return r
}

// DelayShiftConfig parameterizes the delay-shifting experiment.
type DelayShiftConfig struct {
	Scale float64
	Seed  int64
}

// DelayShift regenerates the §3 delay-shifting analysis (eqs 69–73): the
// bound comparison for flat vs hierarchical scheduling, the eq (73)
// improvement condition, and a measured confirmation that the favored
// partition's worst-case delay drops while the other partition pays.
func DelayShift(cfg DelayShiftConfig) *Result {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	r := newResult("delayshift", "§3 — delay shifting via hierarchical partitioning")

	const (
		c  = 10000.0 // bytes/s
		l  = 100.0
		nQ = 10 // flows total
		k  = 2  // partitions
	)
	// Partition 1: 2 flows holding 60% of the link; partition 2: 8 flows
	// on 40%. Condition (73): (|Qi|+1)/(|Q|-K) < Ci/C.
	type part struct {
		name  string
		flows int
		ci    float64
	}
	parts := []part{
		{"favored", 2, 0.6 * c},
		{"other", 8, 0.4 * c},
	}
	for _, p := range parts {
		improves := qos.DelayShiftImproves(p.flows, nQ, k, p.ci, c)
		flat := qos.SFQDelayBound(server.FCParams{C: c}, 0, l, float64(nQ-1)*l)
		// eq (71): hierarchical bound with the class's FC parameters.
		classFC := qos.SFQThroughputFC(server.FCParams{C: c}, p.ci, l, float64(k)*l)
		hier := qos.SFQDelayBound(classFC, 0, l, float64(p.flows-1)*l)
		r.addf("%-8s |Qi|=%d Ci=%.0f: eq(73) improves=%v  flat bound %.1f ms, hierarchical %.1f ms",
			p.name, p.flows, p.ci, improves, units.ToMillis(flat), units.ToMillis(hier))
		r.set("flat_ms_"+p.name, units.ToMillis(flat))
		r.set("hier_ms_"+p.name, units.ToMillis(hier))
		if improves != (hier < flat) {
			r.addf("  WARNING: eq(73) verdict and bound comparison disagree")
		}
	}

	// Measured: worst queueing delay of a favored-partition flow, flat vs
	// hierarchical, under saturating traffic from the big partition.
	mkArrivals := func(rng *rand.Rand) []schedtest.Arrival {
		var arr []schedtest.Arrival
		n := int(80 * cfg.Scale)
		for i := 0; i < n; i++ {
			// favored flows send spaced packets
			arr = append(arr, schedtest.Arrival{At: 0.03 * float64(i), Flow: 1, Bytes: l})
			arr = append(arr, schedtest.Arrival{At: 0.03*float64(i) + 0.007, Flow: 2, Bytes: l})
			// others saturate
			for f := 3; f <= nQ; f++ {
				arr = append(arr, schedtest.Arrival{At: 0.02 * float64(i), Flow: f, Bytes: l})
			}
		}
		return arr
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	flat := core.New()
	for f := 1; f <= nQ; f++ {
		w := 0.3 * c
		if f > 2 {
			w = 0.05 * c
		}
		if err := flat.AddFlow(f, w); err != nil {
			panic(err)
		}
	}
	resFlat := schedtest.Drive(flat, server.NewConstantRate(c), mkArrivals(rng))

	fav := &hier.Spec{Name: "sfq", Class: "favored", Weight: 0.6 * c}
	oth := &hier.Spec{Name: "sfq", Class: "other", Weight: 0.4 * c}
	for f := 1; f <= nQ; f++ {
		if f <= 2 {
			fav.Children = append(fav.Children, &hier.Spec{IsFlow: true, Flow: f, Weight: 0.3 * c})
		} else {
			oth.Children = append(oth.Children, &hier.Spec{IsFlow: true, Flow: f, Weight: 0.05 * c})
		}
	}
	tree, err := hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{fav, oth}}, sched.Config{})
	if err != nil {
		panic(err)
	}
	resHier := schedtest.Drive(tree, server.NewConstantRate(c), mkArrivals(rng))

	dFlat := resFlat.Mon.QueueDelay(1).Max()
	dHier := resHier.Mon.QueueDelay(1).Max()
	r.addf("measured worst delay of a favored flow: flat %.2f ms, hierarchical %.2f ms",
		units.ToMillis(dFlat), units.ToMillis(dHier))
	r.set("measured_flat_ms", units.ToMillis(dFlat))
	r.set("measured_hier_ms", units.ToMillis(dHier))
	return r
}

var _ = fmt.Sprintf
