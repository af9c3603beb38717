package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// The basic SFQ loop: register flows with weights, enqueue packets (tags
// are stamped per eqs 4–5), dequeue in start-tag order.
func Example() {
	s := core.New()
	_ = s.AddFlow(1, 100) // weights in bytes/second
	_ = s.AddFlow(2, 300)

	for i := 0; i < 2; i++ {
		_ = s.Enqueue(0, &sched.Packet{Flow: 1, Length: 300})
		_ = s.Enqueue(0, &sched.Packet{Flow: 2, Length: 300})
	}
	for {
		p, ok := s.Dequeue(0)
		if !ok {
			break
		}
		fmt.Printf("flow %d (start tag %.0f)\n", p.Flow, p.VirtualStart)
	}
	// Output:
	// flow 1 (start tag 0)
	// flow 2 (start tag 0)
	// flow 2 (start tag 1)
	// flow 1 (start tag 3)
}

// Hierarchical link sharing (Section 3): classes split the link, flows
// split their class — fairly at every level even as shares fluctuate.
func ExampleHSFQ() {
	h := core.NewHSFQ()
	realtime, _ := h.NewClass(nil, "real-time", 3)
	best, _ := h.NewClass(nil, "best-effort", 1)
	_ = h.AddFlowTo(realtime, 1, 1)
	_ = h.AddFlowTo(best, 2, 1)

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
func ExampleHSFQ_NewSinkClass() {
	h := core.NewHSFQ()
	cls, _ := h.NewSinkClass(nil, "realtime", 1, "edd", sched.Config{})
	_ = h.AddFlowTo(cls, 1, 100)
	_ = h.AddFlowTo(cls, 2, 100)
	edd := cls.Disc().(sched.EDD)
	_ = edd.AddFlowDeadline(1, 100, 0.5)  // loose deadline
	_ = edd.AddFlowDeadline(2, 100, 0.01) // tight deadline

	_ = h.Enqueue(0, &sched.Packet{Flow: 1, Length: 100})
	_ = h.Enqueue(0, &sched.Packet{Flow: 2, Length: 100})
	p, _ := h.Dequeue(0)
	fmt.Printf("tight deadline wins: flow %d\n", p.Flow)
	// Output:
	// tight deadline wins: flow 2
}
