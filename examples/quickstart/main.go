// Quickstart: the SFQ scheduler API in isolation, then on a simulated
// link.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/units"
)

func main() {
	// --- Part 1: the scheduler by hand -------------------------------
	// Two flows with weights 1:3 (weights are bytes/second). Packets are
	// stamped with start/finish tags (eqs 4-5) and served in start-tag
	// order.
	s := core.New()
	must(s.AddFlow(1, 100))
	must(s.AddFlow(2, 300))

	fmt.Println("enqueue four packets at t=0 and watch the tags:")
	for i := 0; i < 2; i++ {
		for flow := 1; flow <= 2; flow++ {
			p := &sched.Packet{Flow: flow, Length: 300}
			must(s.Enqueue(0, p))
			fmt.Printf("  flow %d pkt %d: start=%.2f finish=%.2f\n",
				flow, i+1, p.VirtualStart, p.VirtualFinish)
		}
	}
	fmt.Println("service order (virtual time advances to each start tag):")
	for {
		p, ok := s.Dequeue(0)
		if !ok {
			break
		}
		fmt.Printf("  served flow %d (tag %.2f), v = %.2f\n", p.Flow, p.VirtualStart, s.V())
	}

	// --- Part 2: on a link ------------------------------------------
	// A 1 Mb/s link with two greedy CBR flows offered 1 Mb/s each: the
	// weights decide who gets what.
	q := &eventq.Queue{}
	lnk := core.New()
	must(lnk.AddFlow(1, 1))
	must(lnk.AddFlow(2, 3))
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "bottleneck", lnk, server.NewConstantRate(units.Mbps(1)), sink)
	mon := sim.MonitorAll(link)

	for flow := 1; flow <= 2; flow++ {
		(&source.CBR{Q: q, Out: link, Flow: flow, Rate: units.Mbps(1),
			PktBytes: 500, Start: 0, Stop: 5}).Run()
	}
	q.Run()

	fmt.Println("\n1 Mb/s link, both flows offered 1 Mb/s, weights 1:3 —")
	fmt.Println("(measured over the congested window [0, 5s]; queues drain afterwards)")
	for flow := 1; flow <= 2; flow++ {
		fmt.Printf("  flow %d: %.3f Mb/s\n",
			flow, units.ToMbps(mon.ServiceCurve(flow).Delta(0, 5)/5))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
