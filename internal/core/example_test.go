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
