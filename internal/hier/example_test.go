package hier_test

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/sched"
)

// Hierarchical link sharing (Section 3): classes split the link, flows
// split their class — fairly at every level even as shares fluctuate.
func ExampleBuild() {
	h, _ := hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "sfq", Class: "real-time", Weight: 3, Children: []*hier.Spec{{IsFlow: true, Flow: 1, Weight: 1}}},
		{Name: "sfq", Class: "best-effort", Weight: 1, Children: []*hier.Spec{{IsFlow: true, Flow: 2, Weight: 1}}},
	}}, sched.Config{})

	for i := 0; i < 4; i++ {
		_ = h.Enqueue(0, &sched.Packet{Flow: 1, Length: 100})
		_ = h.Enqueue(0, &sched.Packet{Flow: 2, Length: 100})
	}
	served := map[int]int{}
	for i := 0; i < 4; i++ {
		p, _ := h.Dequeue(0)
		served[p.Flow]++
	}
	fmt.Printf("first 4 services: real-time %d, best-effort %d\n", served[1], served[2])
	// Output:
	// first 4 services: real-time 3, best-effort 1
}

// A sink class runs its own discipline (here Delay EDD, for the §3
// delay/throughput separation) inside the SFQ hierarchy. Flows are routed
// in with their rate, then given what more they need on the discipline.
func ExampleTree_Sink() {
	h, _ := hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "edd", Class: "realtime", Weight: 1, Children: []*hier.Spec{
			{IsFlow: true, Flow: 1, Weight: 100},
			{IsFlow: true, Flow: 2, Weight: 100},
		}},
	}}, sched.Config{})
	edd := h.Sink(1).(sched.EDD)
	_ = edd.AddFlowDeadline(1, 100, 0.5)  // loose deadline
	_ = edd.AddFlowDeadline(2, 100, 0.01) // tight deadline

	_ = h.Enqueue(0, &sched.Packet{Flow: 1, Length: 100})
	_ = h.Enqueue(0, &sched.Packet{Flow: 2, Length: 100})
	p, _ := h.Dequeue(0)
	fmt.Printf("tight deadline wins: flow %d\n", p.Flow)
	// Output:
	// tight deadline wins: flow 2
}
