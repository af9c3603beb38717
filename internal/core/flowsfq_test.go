package core_test

import (
	"testing"

	"repro/internal/sched"
)

// TestFlowSFQTieRoundRobin: with exact tag ties (identical flows in
// lockstep), the flow heap round-robins rather than serving one flow's
// whole queue — ties on (start tag, sub) fall to global arrival order. It
// runs through the "flowsfq" registry name, a plain alias of "sfq" since
// every SFQ here is flow-indexed.
func TestFlowSFQTieRoundRobin(t *testing.T) {
	s := sched.MustNew("flowsfq")
	if err := s.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for f := 1; f <= 2; f++ {
			if err := s.Enqueue(0, &sched.Packet{Flow: f, Length: 100}); err != nil {
				t.Fatal(err)
			}
		}
	}
	prev := 0
	switches := 0
	for {
		p, ok := s.Dequeue(0)
		if !ok {
			break
		}
		if prev != 0 && p.Flow != prev {
			switches++
		}
		prev = p.Flow
	}
	if switches < 8 {
		t.Errorf("only %d flow switches over 12 packets; ties should alternate", switches)
	}
}
