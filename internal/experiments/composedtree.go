package experiments

import (
	"math"
	"math/rand"

	"repro/internal/fairness"
	"repro/internal/hier"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// ComposedTree drives a heterogeneous scheduler tree — an SFQ link-share
// root over WiMAX-style service classes, each running its own discipline
// (UGS:EDD, rtPS:SCFQ, nrtPS:DRR, BE:FIFO) — and checks that the SFQ
// layer still delivers the 4:3:2:1 class split while each sink keeps its
// local behaviour (DRR halves the nrtPS share between its two flows).
// The same tree is then built a second way, through the composed registry
// name "hier:sfq(edd*4,scfq*3,drr*2,fifo)", and must allocate identically:
// a hier.Spec written out with named classes and flow leaves and one
// parsed from the name grammar describe the same composition.
func ComposedTree(seed int64) *Result {
	r := newResult("composed-tree", "extension §3 — heterogeneous scheduler tree (WiMAX-style link share)")

	const lmax = 300.0
	// Class shares are measured over the interval where every flow is
	// backlogged, normalised by total service so they sum to 1.
	measure := func(s sched.Interface, flows [5]int) (shares [4]float64, split float64) {
		rng := rand.New(rand.NewSource(seed))
		specs := make([]schedtest.FlowSpec, len(flows))
		for i, f := range flows {
			specs[i] = schedtest.FlowSpec{Flow: f, Weight: 1, MaxBytes: lmax}
		}
		res := schedtest.Drive(s, server.NewConstantRate(1000), schedtest.RandomBacklogged(rng, specs, 120))
		joint := res.Mon.BackloggedIntervals(flows[0])
		for _, f := range flows[1:] {
			joint = fairness.Intersect(joint, res.Mon.BackloggedIntervals(f))
		}
		iv := joint[0]
		var got [5]float64
		var total float64
		for i, f := range flows {
			got[i] = res.Mon.ServiceCurve(f).Delta(iv.Start, iv.End)
			total += got[i]
		}
		// flows = {ugs, rtps, nrtps-a, nrtps-b, be}
		shares[0] = got[0] / total
		shares[1] = got[1] / total
		shares[2] = (got[2] + got[3]) / total
		shares[3] = got[4] / total
		split = got[2] / got[3]
		return shares, split
	}

	// Front end 1: the link-sharing spec written out, each class named and
	// its flows listed.
	flow := func(f int) *hier.Spec { return &hier.Spec{IsFlow: true, Flow: f, Weight: 1} }
	ls, err := hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "edd", Class: "ugs", Weight: 4, Children: []*hier.Spec{flow(1)}},
		{Name: "scfq", Class: "rtps", Weight: 3, Children: []*hier.Spec{flow(2)}},
		{Name: "drr", Class: "nrtps", Weight: 2, Children: []*hier.Spec{flow(3), flow(4)}},
		{Name: "fifo", Class: "be", Weight: 1, Children: []*hier.Spec{flow(5)}},
	}}, sched.Config{})
	if err != nil {
		panic(err)
	}
	specShares, split := measure(ls, [5]int{1, 2, 3, 4, 5})

	// Front end 2: the composed registry name. Sinks are in spec order
	// (edd, scfq, drr, fifo) and AddFlow routes flow f to sink f mod 4,
	// so flow ids are chosen to land each flow in the same class as above.
	named := sched.MustNew("hier:sfq(edd*4,scfq*3,drr*2,fifo)")
	nameFlows := [5]int{4, 1, 2, 6, 3}
	for _, f := range nameFlows {
		if err := named.AddFlow(f, 1); err != nil {
			panic(err)
		}
	}
	nameShares, _ := measure(named, nameFlows)
	var maxDiff float64
	for i := range specShares {
		maxDiff = math.Max(maxDiff, math.Abs(specShares[i]-nameShares[i]))
	}

	r.addf("link-share spec:  UGS %.3f  rtPS %.3f  nrtPS %.3f  BE %.3f   (weights 4:3:2:1)",
		specShares[0], specShares[1], specShares[2], specShares[3])
	r.addf("composed name:    UGS %.3f  rtPS %.3f  nrtPS %.3f  BE %.3f   max |delta| = %.4f",
		nameShares[0], nameShares[1], nameShares[2], nameShares[3], maxDiff)
	r.addf("nrtPS DRR split f3/f4 = %.2f", split)
	r.set("share_ugs", specShares[0])
	r.set("share_rtps", specShares[1])
	r.set("share_nrtps", specShares[2])
	r.set("share_be", specShares[3])
	r.set("drr_split", split)
	r.set("name_vs_spec_maxdiff", maxDiff)
	return r
}
