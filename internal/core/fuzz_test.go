package core

import (
	"errors"
	"testing"

	"repro/internal/hier"
	"repro/internal/sched"
)

// The fuzz targets drive a scheduler through an arbitrary byte-encoded
// operation stream — interleaved enqueues, dequeues, clock advances, and
// flow removals — asserting the structural invariants that must hold for
// EVERY sequence: no panics, virtual time and popped start tags
// non-decreasing, per-flow FIFO service, exact packet conservation, and
// Len/QueuedBytes bookkeeping that drains to zero. The byte grammar is
// op = data[2i] and arg = data[2i+1]:
//
//	op%6 == 0,1  enqueue on flow arg%3+1, length arg+1 (op bit 0x40 adds
//	             a per-packet rate, exercising eq 36)
//	op%6 == 2    dequeue
//	op%6 == 3    advance the clock by arg/10 seconds
//	op%6 == 4    try RemoveFlow(arg%3+1); must fail ErrFlowBusy while
//	             backlogged, and the flow is re-added when it succeeds
//	op%6 == 5    drain one packet at a much later time (busy-period end)

type fuzzState struct {
	t       *testing.T
	s       sched.Interface
	now     float64
	nextSeq map[int]int64
	lastSeq map[int]int64
	queued  map[*sched.Packet]bool
	inQ     int
	prevTag float64
	tagged  bool
}

func newFuzzState(t *testing.T, s sched.Interface) *fuzzState {
	return &fuzzState{
		t: t, s: s,
		nextSeq: make(map[int]int64),
		lastSeq: make(map[int]int64),
		queued:  make(map[*sched.Packet]bool),
	}
}

func (st *fuzzState) enqueue(flow int, length, rate float64) {
	st.nextSeq[flow]++
	p := &sched.Packet{Flow: flow, Seq: st.nextSeq[flow], Length: length, Rate: rate}
	if err := st.s.Enqueue(st.now, p); err != nil {
		st.t.Fatalf("enqueue flow %d at %v: %v", flow, st.now, err)
	}
	st.queued[p] = true
	st.inQ++
}

// dequeue pops one packet (if any), checking identity, FIFO order, and —
// when the scheduler stamps tags — start-tag monotonicity.
func (st *fuzzState) dequeue(checkTags bool) {
	p, ok := st.s.Dequeue(st.now)
	if !ok {
		if st.inQ != 0 {
			st.t.Fatalf("dequeue at %v returned empty with %d packets queued", st.now, st.inQ)
		}
		return
	}
	if !st.queued[p] {
		st.t.Fatalf("dequeue returned a packet never enqueued (or twice): flow %d seq %d", p.Flow, p.Seq)
	}
	delete(st.queued, p)
	st.inQ--
	if p.Seq <= st.lastSeq[p.Flow] {
		st.t.Fatalf("per-flow FIFO violated: flow %d seq %d after seq %d", p.Flow, p.Seq, st.lastSeq[p.Flow])
	}
	st.lastSeq[p.Flow] = p.Seq
	if checkTags {
		if st.tagged && p.VirtualStart < st.prevTag {
			st.t.Fatalf("start tags went back: %v after %v", p.VirtualStart, st.prevTag)
		}
		st.prevTag, st.tagged = p.VirtualStart, true
	}
	if st.s.Len() != st.inQ {
		st.t.Fatalf("Len() = %d, harness counts %d", st.s.Len(), st.inQ)
	}
}

// drain empties the scheduler and verifies conservation.
func (st *fuzzState) drain(checkTags bool) {
	n := st.inQ // the bound must not shrink as packets pop
	for i := 0; i <= n; i++ {
		st.now++
		st.dequeue(checkTags)
	}
	if st.inQ != 0 || st.s.Len() != 0 {
		st.t.Fatalf("drain left %d packets (Len %d)", st.inQ, st.s.Len())
	}
	if len(st.queued) != 0 {
		st.t.Fatalf("%d packets enqueued but never served", len(st.queued))
	}
	for flow := 1; flow <= 3; flow++ {
		if b := st.s.QueuedBytes(flow); b != 0 {
			st.t.Fatalf("flow %d QueuedBytes = %v after drain", flow, b)
		}
	}
}

func fuzzScheduler(t *testing.T, s sched.Interface, data []byte, checkTags bool) {
	st := newFuzzState(t, s)
	weights := map[int]float64{1: 100, 2: 250, 3: 400}
	for flow, w := range weights {
		if err := s.AddFlow(flow, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		flow := int(arg)%3 + 1
		switch op % 6 {
		case 0, 1:
			rate := 0.0
			if op&0x40 != 0 {
				rate = float64(arg)*2 + 1
			}
			st.enqueue(flow, float64(arg)+1, rate)
		case 2:
			st.dequeue(checkTags)
		case 3:
			st.now += float64(arg) / 10
		case 4:
			if err := st.s.RemoveFlow(flow); err != nil {
				if !errors.Is(err, sched.ErrFlowBusy) || st.s.QueuedBytes(flow) == 0 {
					t.Fatalf("RemoveFlow(%d) with %v queued: %v", flow, st.s.QueuedBytes(flow), err)
				}
			} else {
				if st.s.QueuedBytes(flow) != 0 {
					t.Fatalf("RemoveFlow(%d) succeeded while backlogged", flow)
				}
				// Immediately re-add so the stream keeps exercising it;
				// the removal path itself (fresh chain) has been taken.
				if err := st.s.AddFlow(flow, weights[flow]); err != nil {
					t.Fatalf("re-add flow %d: %v", flow, err)
				}
			}
		case 5:
			st.now += 1000 // long idle gap: exercises end-of-busy-period v jump
			st.dequeue(checkTags)
		}
	}
	st.drain(checkTags)
}

// FuzzSFQEnqueueDequeue fuzzes the production SFQ scheduler and
// cross-checks every run against the heap-free reference semantics via
// tag monotonicity, FIFO, and conservation.
func FuzzSFQEnqueueDequeue(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 2, 0, 1, 3, 2, 0, 2, 0})
	f.Add([]byte{0, 1, 3, 50, 2, 0, 5, 0, 0, 7, 2, 0})
	f.Add([]byte{64, 9, 64, 130, 2, 0, 4, 1, 2, 0, 4, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 255, 5, 0, 0, 5, 2, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzScheduler(t, New(), data, true)
	})
}

// FuzzHSFQ fuzzes the hierarchical scheduler over a two-level tree (flows
// 1 and 2 under an interior class, flow 3 at the root) with the same
// operation grammar and structural invariants (HSFQ does not stamp packet
// tags, so tag monotonicity is skipped).
func FuzzHSFQ(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 2, 0, 1, 3, 2, 0, 2, 0})
	f.Add([]byte{0, 1, 3, 50, 2, 0, 5, 0, 0, 7, 2, 0})
	f.Add([]byte{0, 0, 1, 1, 1, 2, 3, 100, 2, 0, 5, 0, 0, 5, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
			{Name: "sfq", Class: "interior", Weight: 350, Children: []*hier.Spec{
				{IsFlow: true, Flow: 1, Weight: 100},
				{IsFlow: true, Flow: 2, Weight: 250},
			}},
		}}, sched.Config{})
		if err != nil {
			t.Fatal(err)
		}
		st := newFuzzState(t, h)
		if err := h.AddFlow(3, 400); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			flow := int(arg)%3 + 1
			switch op % 6 {
			case 0, 1:
				st.enqueue(flow, float64(arg)+1, 0)
			case 2:
				st.dequeue(false)
			case 3:
				st.now += float64(arg) / 10
			case 5:
				st.now += 1000
				st.dequeue(false)
			}
		}
		st.drain(false)
	})
}
