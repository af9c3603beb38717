// Variablerate: WFQ vs SFQ on a link whose service rate fluctuates — the
// continuous version of the paper's Example 2. WFQ's fluid clock runs at
// the assumed capacity and drifts from reality; SFQ self-clocks off the
// packet in service and stays fair.
//
// Run with: go run ./examples/variablerate
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/units"
)

func main() {
	const (
		duration = 20.0
		pkt      = 500.0
	)
	c := units.Mbps(2) // the capacity WFQ assumes

	for _, name := range []string{"WFQ", "SFQ"} {
		var s sched.Interface
		if name == "WFQ" {
			s = sched.MustNew("wfq", sched.WithAssumedCapacity(c))
		} else {
			s = core.New()
		}
		must(s.AddFlow(1, 1))
		must(s.AddFlow(2, 1))

		q := &eventq.Queue{}
		sink := sim.NewSink(q)
		// The real link averages only half the assumed capacity and
		// fluctuates: ±50% states with 100 ms mean holds.
		rng := rand.New(rand.NewSource(7))
		proc := server.NewMarkovModulated(
			[]float64{0.25 * c, 0.5 * c, 0.75 * c}, 0.1, rng)
		link := sim.NewLink(q, "radio", s, proc, sink)
		mon := sim.MonitorAll(link)

		// Flow 1 is busy from t=0; flow 2 joins at t=10. Both greedy.
		(&source.CBR{Q: q, Out: link, Flow: 1, Rate: c, PktBytes: pkt,
			Start: 0, Stop: duration}).Run()
		(&source.CBR{Q: q, Out: link, Flow: 2, Rate: c, PktBytes: pkt,
			Start: duration / 2, Stop: duration}).Run()
		q.Run()

		w1 := mon.ServiceCurve(1).Delta(duration/2, duration)
		w2 := mon.ServiceCurve(2).Delta(duration/2, duration)
		h := fairness.MonitorUnfairness(mon, 1, 2, 1, 1)
		fmt.Printf("%s: after flow 2 joins, service split %.2f / %.2f Mb/s; measured H = %.0f\n",
			name,
			units.ToMbps(w1/(duration/2)), units.ToMbps(w2/(duration/2)), h)
		if name == "SFQ" {
			fmt.Printf("     (Theorem 1 bound for SFQ: %.0f — holds on any server)\n",
				qos.SFQFairnessBound(pkt, 1, pkt, 1))
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
