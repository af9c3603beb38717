// Linksharing: the Section 3 hierarchical link-sharing structure described
// as one hier.Spec — Example 3's tree plus the eq (65) FC-parameter
// recursion for every class.
//
// Run with: go run ./examples/linksharing
package main

import (
	"fmt"
	"log"

	"repro/internal/eventq"
	"repro/internal/hier"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/units"
)

func main() {
	// Link sharing structure (weights are reserved bytes/second):
	//
	//	root ── real-time (60%) ── video flow 1
	//	    └── best-effort (40%) ── bulk flow 2
	//	                         └── interactive flow 3
	c := units.Mbps(10)
	video := &hier.Spec{IsFlow: true, Flow: 1, Weight: 0.6 * c}
	bulk := &hier.Spec{IsFlow: true, Flow: 2, Weight: 0.3 * c}
	interactive := &hier.Spec{IsFlow: true, Flow: 3, Weight: 0.1 * c}
	realTime := &hier.Spec{Name: "sfq", Class: "real-time", Weight: 0.6 * c, Children: []*hier.Spec{video}}
	bestEffort := &hier.Spec{Name: "sfq", Class: "best-effort", Weight: 0.4 * c, Children: []*hier.Spec{bulk, interactive}}
	spec := &hier.Spec{Name: "sfq", Children: []*hier.Spec{realTime, bestEffort}}
	tree, err := hier.Build(spec, sched.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Analytic bounds: propagate the link's FC parameters down the tree.
	fc := spec.FC(server.FCParams{C: c, Delta: 0}, 1000)
	fmt.Println("eq (65) FC characterization of each class's virtual server:")
	for _, cl := range []struct {
		name string
		spec *hier.Spec
	}{{"real-time", realTime}, {"best-effort", bestEffort}, {"bulk", bulk}, {"interactive", interactive}} {
		fmt.Printf("  %-12s guaranteed rate %6.2f Mb/s, burst allowance %6.0f bytes\n",
			cl.name, units.ToMbps(fc[cl.spec].C), fc[cl.spec].Delta)
	}

	// Simulate: all three flows greedy; then the video goes idle halfway
	// and best-effort inherits its bandwidth, still split 3:1.
	const duration = 10.0
	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "shared", tree, server.NewConstantRate(c), sink)
	mon := sim.MonitorAll(link)

	(&source.CBR{Q: q, Out: link, Flow: 1, Rate: 0.62 * c, PktBytes: 1000,
		Start: 0, Stop: duration / 2}).Run() // video stops at t=5
	(&source.CBR{Q: q, Out: link, Flow: 2, Rate: c, PktBytes: 1000,
		Start: 0, Stop: duration}).Run()
	(&source.CBR{Q: q, Out: link, Flow: 3, Rate: c, PktBytes: 1000,
		Start: 0, Stop: duration}).Run()
	q.Run()

	report := func(name string, t1, t2 float64) {
		fmt.Printf("\n%s:\n", name)
		for f := 1; f <= 3; f++ {
			mbps := units.ToMbps(mon.ServiceCurve(f).Delta(t1, t2) / (t2 - t1))
			fmt.Printf("  flow %d: %6.2f Mb/s\n", f, mbps)
		}
	}
	report("phase 1 [0,5): video active — shares ≈ 6 / 3 / 1", 0, 5)
	report("phase 2 [5,10): video idle — best-effort inherits, still 3:1", 5, 10)
}
