package sched_test

import (
	"testing"

	_ "repro/internal/core" // registers the SFQ family
	_ "repro/internal/pifo" // registers the PIFO/UPS disciplines
	"repro/internal/sched"
)

// Exercises the bookkeeping paths the behavioural tests don't reach:
// flow-removal on every algorithm, Peek, QueuedCount, constructor
// validation, Priority's default-level routing — and pins the registry's
// name list, so new disciplines cannot land without showing up here and in
// the conformance coverage test.

// TestRegistryNamePin is the sched-side half of the coverage contract: the
// full list of registered names (aliases included) is pinned, and a
// mismatch fails listing exactly which names are missing or unexpected.
// internal/conformance's TestRegistryCoversAllSuts then holds every pinned
// name to a sut row and a tag-monotonicity spec.
func TestRegistryNamePin(t *testing.T) {
	want := []string{
		"drr", "edd", "fa", "fairairport", "fifo", "fifo+", "fifoplus",
		"flowsfq", "fqs",
		"hier:pifo-sfq(pifo-sfq,pifo-sfq)", "hier:priority(fifo,scfq)", "hier:sfq(drr,edd)",
		"hier:sfq(edd,scfq,drr,fifo)",
		"hsfq", "lstf", "pifo-edd", "pifo-scfq",
		"pifo-sfq", "pifo-vclock", "pifo-wfq", "priority",
		"scfq", "sfq", "sfq-lowweight", "srpt", "vc", "vclock", "wfq",
	}
	got := sched.Names()
	gotSet := make(map[string]bool, len(got))
	for _, n := range got {
		gotSet[n] = true
	}
	wantSet := make(map[string]bool, len(want))
	var missing, extra []string
	for _, n := range want {
		wantSet[n] = true
		if !gotSet[n] {
			missing = append(missing, n)
		}
	}
	for _, n := range got {
		if !wantSet[n] {
			extra = append(extra, n)
		}
	}
	if len(missing) > 0 {
		t.Errorf("registered names missing from the registry: %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("unpinned registered names (add them here and to the conformance coverage): %v", extra)
	}
}

func TestRemoveFlowEverywhere(t *testing.T) {
	mks := map[string]func() sched.Interface{
		"SCFQ": func() sched.Interface { return sched.NewSCFQ() },
		"VC":   func() sched.Interface { return sched.NewVirtualClock() },
		"EDD":  func() sched.Interface { return sched.NewEDD() },
		"FIFO": func() sched.Interface { return sched.NewFIFO() },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.RemoveFlow(1); err == nil {
				t.Error("removing an unknown flow should fail")
			}
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 50}); err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveFlow(1); err == nil {
				t.Error("removing a backlogged flow should fail")
			}
			if _, ok := s.Dequeue(0); !ok {
				t.Fatal("dequeue")
			}
			if err := s.RemoveFlow(1); err != nil {
				t.Errorf("removing an idle flow: %v", err)
			}
			// Time-went-back guard.
			if err := s.AddFlow(2, 100); err != nil {
				t.Fatal(err)
			}
			s.Dequeue(10)
			if err := s.Enqueue(5, &sched.Packet{Flow: 2, Length: 1}); err == nil {
				t.Error("time going backwards accepted")
			}
		})
	}
}

func TestFlowTableQueuedCount(t *testing.T) {
	ft := sched.NewFlowTable()
	if err := ft.Add(1, 10); err != nil {
		t.Fatal(err)
	}
	// The counters are the record's FIFO: what it holds is what is queued.
	var pool sched.ChunkPool
	f := ft.Registered(1)
	a, b := 0.1, 0.2 // the sum carries a residue the drain must not keep
	f.Push(&pool, 0, 0, 1, &sched.Packet{Flow: 1, Length: a})
	f.Push(&pool, 0, 0, 2, &sched.Packet{Flow: 1, Length: b})
	if ft.QueuedCount(1) != 2 || ft.QueuedBytes(1) != a+b {
		t.Errorf("QueuedCount = %d, QueuedBytes = %v", ft.QueuedCount(1), ft.QueuedBytes(1))
	}
	f.Pop(&pool)
	f.Pop(&pool)
	if ft.QueuedCount(1) != 0 || ft.QueuedBytes(1) != 0 {
		t.Error("counters should return to zero")
	}
	if err := ft.Add(2, -1); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := map[string]func(){
		"DRR":       func() { sched.NewDRR(0) },
		"WFQ":       func() { sched.NewWFQ(0) },
		"WFQOracle": func() { sched.NewWFQOracle(func(float64) float64 { return 1 }, 0) },
	}
	for name, bad := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid constructor args accepted", name)
				}
			}()
			bad()
		}()
	}
}

func TestEDDAddFlowDeadlineValidation(t *testing.T) {
	s := sched.NewEDD()
	if err := s.AddFlowDeadline(1, 100, -1); err == nil {
		t.Error("negative deadline accepted")
	}
	if err := s.AddFlowDeadline(1, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

// TestPriorityDefaultAndQueuedBytes: a flow's id is its level, so plain
// AddFlow is all the registration strict priority needs.
func TestPriorityDefaultAndQueuedBytes(t *testing.T) {
	s := sched.MustNew("priority")
	if err := s.AddFlow(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 7, Length: 42}); err != nil {
		t.Fatal(err)
	}
	if s.QueuedBytes(7) != 42 {
		t.Errorf("QueuedBytes = %v", s.QueuedBytes(7))
	}
	if s.QueuedBytes(99) != 0 {
		t.Error("unknown flow should report 0 bytes")
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 99, Length: 1}); err == nil {
		t.Error("unknown flow accepted")
	}
	if err := s.RemoveFlow(99); err == nil {
		t.Error("unknown removal accepted")
	}
	if _, ok := s.Dequeue(0); !ok {
		t.Fatal("dequeue")
	}
	if err := s.RemoveFlow(7); err != nil {
		t.Errorf("RemoveFlow: %v", err)
	}
}

func TestWFQOracleV(t *testing.T) {
	s := sched.NewWFQOracle(func(float64) float64 { return 100 }, 1e-3)
	if err := s.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	if s.V() != 0 {
		t.Error("initial V")
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 100}); err != nil {
		t.Fatal(err)
	}
	s.Dequeue(0.5)
	if s.V() <= 0 {
		t.Error("V should advance while the fluid system is backlogged")
	}
	if s.QueuedBytes(1) != 0 {
		t.Error("queue should be empty after dequeue")
	}
}
