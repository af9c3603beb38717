package conformance

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestRemoveFlowBacklogged is the regression suite for flow teardown: a
// backlogged flow must refuse removal with ErrFlowBusy and remain fully
// usable afterwards (its state untouched by the failed attempt), removal
// must succeed once drained, and a removed flow must reject traffic until
// re-added. This pins the FlowTable.Remove ordering — the busy check runs
// before any per-flow state is deleted — for every scheduler at once.
func TestRemoveFlowBacklogged(t *testing.T) {
	factories := map[string]func() sched.Interface{
		"sfq":     func() sched.Interface { return core.New() },
		"flowsfq": func() sched.Interface { return sched.MustNew("sfq") },
		"hsfq":    func() sched.Interface { return sched.MustNew("hsfq") },
		"refsfq":  func() sched.Interface { return NewRefSFQ() },
		"scfq":    func() sched.Interface { return sched.MustNew("scfq") },
		"wfq":     func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(1000)) },
		"fqs": func() sched.Interface {
			return sched.MustNewRanked(sched.RankWFQ(true), sched.Config{AssumedCapacity: 1000})
		},
		"vclock":      func() sched.Interface { return sched.MustNew("vclock") },
		"edd":         func() sched.Interface { return sched.MustNew("edd") },
		"drr":         func() sched.Interface { return sched.MustNew("drr", sched.WithQuantum(10)) },
		"fifo":        func() sched.Interface { return sched.MustNew("fifo") },
		"fairairport": func() sched.Interface { return sched.MustNew("fairairport") },
		"priority":    func() sched.Interface { return sched.MustNewRanked(sched.RankPriority(), sched.Config{}) },
	}
	for name, mk := range factories {
		mk := mk
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.AddFlow(2, 200); err != nil {
				t.Fatal(err)
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: 1, Seq: 1, Length: 50}); err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveFlow(1); !errors.Is(err, sched.ErrFlowBusy) {
				t.Fatalf("removing backlogged flow: got %v, want ErrFlowBusy", err)
			}
			// The failed removal must not have corrupted the flow: it still
			// accepts and accounts for traffic.
			if err := s.Enqueue(1, &sched.Packet{Flow: 1, Seq: 2, Length: 30}); err != nil {
				t.Fatalf("enqueue after failed removal: %v", err)
			}
			if got := s.QueuedBytes(1); got != 80 {
				t.Fatalf("QueuedBytes after failed removal = %v, want 80", got)
			}
			if got := s.Len(); got != 2 {
				t.Fatalf("Len after failed removal = %d, want 2", got)
			}
			// A flow with a packet IN SERVICE (dequeued, not yet another
			// queued) must also be protected where the scheduler tracks it.
			for i := 0; i < 2; i++ {
				if _, ok := s.Dequeue(float64(2 + i)); !ok {
					t.Fatalf("dequeue %d failed", i)
				}
			}
			if _, ok := s.Dequeue(10); ok {
				t.Fatal("queue should be empty")
			}
			if err := s.RemoveFlow(1); err != nil {
				t.Fatalf("removing drained flow: %v", err)
			}
			if err := s.Enqueue(11, &sched.Packet{Flow: 1, Seq: 3, Length: 10}); !errors.Is(err, sched.ErrUnknownFlow) {
				t.Fatalf("enqueue on removed flow: got %v, want ErrUnknownFlow", err)
			}
			if err := s.RemoveFlow(1); !errors.Is(err, sched.ErrUnknownFlow) {
				t.Fatalf("double removal: got %v, want ErrUnknownFlow", err)
			}
			// Re-adding starts a fresh, working flow.
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatalf("re-add: %v", err)
			}
			if err := s.Enqueue(12, &sched.Packet{Flow: 1, Seq: 1, Length: 10}); err != nil {
				t.Fatalf("enqueue after re-add: %v", err)
			}
			if p, ok := s.Dequeue(13); !ok || p.Flow != 1 {
				t.Fatalf("dequeue after re-add: %+v %v", p, ok)
			}
		})
	}
}

// TestRemoveBackloggedUniform pins the RemoveFlow error contract for EVERY
// registered discipline, driven off the registry itself so a newly added
// scheduler is covered the moment it registers: removing a backlogged flow
// fails with a wrapped sched.ErrFlowBusy (uniform vocabulary — errors.Is,
// not string matching), removal succeeds once drained, and unknown flows
// fail with sched.ErrUnknownFlow.
func TestRemoveBackloggedUniform(t *testing.T) {
	for _, name := range registryRows() {
		name := name
		t.Run(name, func(t *testing.T) {
			s := newRegistered(t, name)
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: 1, Seq: 1, Length: 50}); err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveFlow(1); !errors.Is(err, sched.ErrFlowBusy) {
				t.Fatalf("removing backlogged flow: got %v, want wrapped ErrFlowBusy", err)
			}
			for i := 0; i < 64; i++ { // drain; large now lets fluid references go idle too
				if _, ok := s.Dequeue(1e9 + float64(i)); !ok {
					break
				}
			}
			if err := s.RemoveFlow(1); err != nil {
				t.Fatalf("removing drained flow: %v", err)
			}
			if err := s.RemoveFlow(1); !errors.Is(err, sched.ErrUnknownFlow) {
				t.Fatalf("double removal: got %v, want wrapped ErrUnknownFlow", err)
			}
			if err := s.Enqueue(1e9+100, &sched.Packet{Flow: 1, Seq: 2, Length: 50}); !errors.Is(err, sched.ErrUnknownFlow) {
				t.Fatalf("enqueue on removed flow: got %v, want wrapped ErrUnknownFlow", err)
			}
		})
	}
}

// TestAddFlowUpsert pins the Interface's "registering an existing flow
// updates its weight" for every registered discipline, a DRR sink inside a
// tree included (flow 0 of hier:sfq(drr,edd)), where hier.Tree.SetWeight
// falls back to that upsert: the second AddFlow succeeds, and the flow then
// queues and is served.
func TestAddFlowUpsert(t *testing.T) {
	for _, name := range registryRows() {
		t.Run(name, func(t *testing.T) {
			s := newRegistered(t, name)
			for _, w := range []float64{100, 300} {
				if err := s.AddFlow(0, w); err != nil {
					t.Fatalf("AddFlow(0, %v): %v", w, err)
				}
			}
			if rc, ok := s.(sched.Reconfigurable); ok {
				if err := rc.SetWeight(0, 200); err != nil {
					t.Fatalf("SetWeight: %v", err)
				}
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: 0, Length: 50}); err != nil {
				t.Fatal(err)
			}
			if p, ok := s.Dequeue(1); !ok || p.Flow != 0 {
				t.Fatalf("Dequeue = %+v, %v", p, ok)
			}
		})
	}
}

// fluidBacked lists the registered names whose flows can be idle in the
// packet queue and still busy in a fluid GPS reference.
var fluidBacked = map[string]bool{"wfq": true, "fqs": true}

// newRegistered builds name, or the discipline a retired name built,
// through the registry with the options the names that need some need.
func newRegistered(t *testing.T, name string) sched.Interface {
	t.Helper()
	name = sutRegistryName(name)
	var opts []sched.Option
	if fluidBacked[name] {
		opts = []sched.Option{sched.WithAssumedCapacity(1000)}
	}
	s, err := sched.New(name, opts...)
	if err != nil {
		t.Fatalf("registry construction: %v", err)
	}
	return s
}

// TestRemoveFlowErrorPrecedence pins, for every registered name, WHICH
// error RemoveFlow gives when more than one could apply — the busy check
// reads the flow record's FIFO, not a separate counter table: a flow the
// scheduler never heard of is unknown even while the scheduler is busy and
// before any busy check runs; a registered flow that never sent is
// removable; a flow whose only packet is in service is removable unless a
// fluid reference still holds it (WFQ, FQS: busy); and the
// failed attempts leave the backlog as it was.
func TestRemoveFlowErrorPrecedence(t *testing.T) {
	for _, name := range registryRows() {
		name := name
		t.Run(name, func(t *testing.T) {
			s := newRegistered(t, name)
			for f := 1; f <= 3; f++ {
				if err := s.AddFlow(f, 100); err != nil {
					t.Fatal(err)
				}
			}
			for seq := int64(1); seq <= 2; seq++ {
				if err := s.Enqueue(0, &sched.Packet{Flow: 1, Seq: seq, Length: 50}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: 2, Seq: 1, Length: 50}); err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveFlow(9); !errors.Is(err, sched.ErrUnknownFlow) {
				t.Fatalf("never-registered flow on a busy scheduler: got %v, want ErrUnknownFlow", err)
			}
			if err := s.RemoveFlow(1); !errors.Is(err, sched.ErrFlowBusy) {
				t.Fatalf("backlogged flow: got %v, want ErrFlowBusy", err)
			}
			if s.Len() != 3 || s.QueuedBytes(1) != 100 {
				t.Fatalf("failed removals changed the backlog: Len %d, flow 1 holds %v bytes", s.Len(), s.QueuedBytes(1))
			}
			if err := s.RemoveFlow(3); err != nil {
				t.Fatalf("registered flow that never sent: %v", err)
			}
			if err := s.RemoveFlow(3); !errors.Is(err, sched.ErrUnknownFlow) {
				t.Fatalf("second removal: got %v, want ErrUnknownFlow", err)
			}
			// Serve until flow 2's one packet has left the queue; the clock
			// barely moves, so a fluid reference has not finished it.
			for i := 1; s.QueuedBytes(2) > 0; i++ {
				if _, ok := s.Dequeue(float64(i) * 1e-6); !ok {
					t.Fatal("scheduler empty with flow 2 still queued")
				}
			}
			err := s.RemoveFlow(2)
			if fluidBacked[sutRegistryName(name)] {
				if !errors.Is(err, sched.ErrFlowBusy) {
					t.Fatalf("packet-idle, fluid-busy flow: got %v, want ErrFlowBusy", err)
				}
			} else if err != nil {
				t.Fatalf("flow whose packet is in service: %v", err)
			}
		})
	}
}

// TestQueuedBytesReadsDoNotInsert: asking any registered discipline for the
// queued bytes of 1 000 flows it never heard of answers zero and allocates
// nothing — a get-or-create read would allocate a flow record per id.
func TestQueuedBytesReadsDoNotInsert(t *testing.T) {
	for _, name := range registryRows() {
		name := name
		t.Run(name, func(t *testing.T) {
			s := newRegistered(t, name)
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: 1, Seq: 1, Length: 50}); err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			allocs := testing.AllocsPerRun(1, func() {
				for id := 1000; id < 2000; id++ {
					sum += s.QueuedBytes(id)
				}
			})
			if sum != 0 || allocs != 0 {
				t.Fatalf("1000 unknown flows: %v bytes, %v allocations, want 0 and 0", sum, allocs)
			}
			if got := s.QueuedBytes(1); got != 50 {
				t.Fatalf("QueuedBytes(1) = %v, want 50", got)
			}
		})
	}
}

// TestRemoveFlowPreservesTagChain pins the SFQ-specific hazard the audit
// targeted: a FAILED RemoveFlow of a backlogged flow must not discard the
// flow's finish-tag chain (eq 4 uses F(p_f^{j-1})), and a successful
// remove + re-add MUST reset it — the documented fresh-chain semantics.
func TestRemoveFlowPreservesTagChain(t *testing.T) {
	for name, mk := range map[string]func() sched.Interface{
		"sfq":     func() sched.Interface { return core.New() },
		"flowsfq": func() sched.Interface { return sched.MustNew("sfq") },
		"refsfq":  func() sched.Interface { return NewRefSFQ() },
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatal(err)
			}
			p1 := &sched.Packet{Flow: 1, Seq: 1, Length: 50}
			if err := s.Enqueue(0, p1); err != nil {
				t.Fatal(err)
			}
			if p1.VirtualFinish != 0.5 {
				t.Fatalf("p1 finish tag = %v, want 0.5", p1.VirtualFinish)
			}
			if err := s.RemoveFlow(1); !errors.Is(err, sched.ErrFlowBusy) {
				t.Fatalf("got %v, want ErrFlowBusy", err)
			}
			// Chain intact: p2 starts at F(p1), not at v = 0.
			p2 := &sched.Packet{Flow: 1, Seq: 2, Length: 50}
			if err := s.Enqueue(0, p2); err != nil {
				t.Fatal(err)
			}
			if p2.VirtualStart != p1.VirtualFinish {
				t.Fatalf("chain broken by failed removal: p2 start = %v, want %v",
					p2.VirtualStart, p1.VirtualFinish)
			}
			for i := 0; i < 2; i++ {
				if _, ok := s.Dequeue(float64(i + 1)); !ok {
					t.Fatal("dequeue failed")
				}
			}
			s.Dequeue(3) // end busy period: v jumps to max finish (1.0)
			if err := s.RemoveFlow(1); err != nil {
				t.Fatal(err)
			}
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatal(err)
			}
			// Fresh chain: the re-added flow starts at v, not at its old F.
			p3 := &sched.Packet{Flow: 1, Seq: 3, Length: 50}
			if err := s.Enqueue(4, p3); err != nil {
				t.Fatal(err)
			}
			if p3.VirtualStart != 1.0 {
				t.Fatalf("re-added flow start = %v, want v = 1.0 (fresh chain)", p3.VirtualStart)
			}
		})
	}
}

// TestRemoveFlowReAddNewWeight pins the remove → re-add-with-a-different-
// weight path on the flow-indexed core: the re-added flow must be costed
// with its NEW weight (finish tags span l/w_new, not l/w_old) and start a
// fresh tag chain and a fresh FlowQ — nothing of the old registration may
// leak through the FlowSet.Drop teardown.
func TestRemoveFlowReAddNewWeight(t *testing.T) {
	for name, mk := range map[string]func() sched.Interface{
		"sfq":     func() sched.Interface { return core.New() },
		"flowsfq": func() sched.Interface { return sched.MustNew("sfq") },
		"scfq":    func() sched.Interface { return sched.MustNew("scfq") },
		"vclock":  func() sched.Interface { return sched.MustNew("vclock") },
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.AddFlow(1, 100); err != nil {
				t.Fatal(err)
			}
			// Old registration: weight 100, so each 50-byte packet spans
			// 50/100 = 0.5 in virtual time. Backlog past one FlowQ chunk so
			// the drop exercises chunk release, not just map deletion.
			const old = 70
			for i := 0; i < old; i++ {
				if err := s.Enqueue(0, &sched.Packet{Flow: 1, Seq: int64(i + 1), Length: 50}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < old; i++ {
				p, ok := s.Dequeue(float64(i + 1))
				if !ok || p.Flow != 1 || p.Seq != int64(i+1) {
					t.Fatalf("drain %d: got %+v ok=%v, want flow 1 seq %d in FIFO order", i, p, ok, i+1)
				}
				if span := p.VirtualFinish - p.VirtualStart; span != 0.5 {
					t.Fatalf("old-weight packet %d spans %v in virtual time, want 0.5", i, span)
				}
			}
			s.Dequeue(old + 1) // idle dequeue ends the busy period
			if err := s.RemoveFlow(1); err != nil {
				t.Fatal(err)
			}

			// Re-add with QUADRUPLE the weight: the same packet length must
			// now span 50/400 = 0.125. Any stale per-flow state — old weight,
			// old finish tag, old queue contents — would break the exact
			// values below.
			if err := s.AddFlow(1, 400); err != nil {
				t.Fatal(err)
			}
			pa := &sched.Packet{Flow: 1, Seq: 100, Length: 50}
			pb := &sched.Packet{Flow: 1, Seq: 101, Length: 50}
			if err := s.Enqueue(old+2, pa); err != nil {
				t.Fatal(err)
			}
			if err := s.Enqueue(old+2, pb); err != nil {
				t.Fatal(err)
			}
			if span := pa.VirtualFinish - pa.VirtualStart; span != 0.125 {
				t.Fatalf("re-added flow costed at %v per packet, want 0.125 (new weight ignored?)", span)
			}
			// The chain restarts from pa's tags, chaining with the new weight.
			if pb.VirtualStart != pa.VirtualFinish || pb.VirtualFinish != pa.VirtualFinish+0.125 {
				t.Fatalf("re-added chain broken: pb = (%v,%v), want (%v,%v)",
					pb.VirtualStart, pb.VirtualFinish, pa.VirtualFinish, pa.VirtualFinish+0.125)
			}
			// And the fresh FlowQ serves exactly the two new packets, in order.
			if p, ok := s.Dequeue(old + 3); !ok || p != pa {
				t.Fatalf("first post-re-add dequeue: %+v ok=%v, want pa", p, ok)
			}
			if p, ok := s.Dequeue(old + 4); !ok || p != pb {
				t.Fatalf("second post-re-add dequeue: %+v ok=%v, want pb", p, ok)
			}
			if p, ok := s.Dequeue(old + 5); ok {
				t.Fatalf("stale packet resurfaced after re-add: %+v", p)
			}
		})
	}
}
