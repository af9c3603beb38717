package pifo_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// FuzzPIFORank drives a sched.PIFO — from outside its package, through a
// Ranked discipline the way the UPS disciplines here use it — through an
// arbitrary op stream whose ranks come from a seeded generator — arbitrary,
// *including decreasing within a backlogged flow*, so the monotonizing clamp
// is part of what is being checked — in lockstep with a naive model:
// per-flow item slices, a linear scan for the global minimum, and an
// explicit replication of the clamp rule. Flow-rank rewrites (PIFO.Rekey,
// the SRPT hook) are in the op mix too — the one path that changes a
// backlogged flow's head key without a push or a pop, so the heap's copy of
// it must be refreshed: CheckSlots runs after every operation. Every
// divergence fails the run.
//
// Byte grammar: data[0] seeds the rank generator; then op = data[2i+1],
// arg = data[2i+2]:
//
//	op%8 == 0..3  push on flow arg%5+1 under a generated (key, sub);
//	              keys are quantized to quarters so ties are common
//	op%8 == 4,5   pop the global minimum
//	op%8 == 6     rewrite flow arg%5+1's competing rank (Rekey)
//	op%8 == 7     unregister flow arg%5+1 (refused while it is backlogged),
//	              or register it again if it is not registered
func FuzzPIFORank(f *testing.F) {
	f.Add([]byte("\x07\x00\x00\x00\x10\x01\x25\x04\x00\x00\xf3\x04\x00\x04\x00"))
	f.Add([]byte("\x2a\x00\x00\x01\x00\x02\x01\x06\x01\x04\x00\x04\x00\x04\x00"))
	f.Add([]byte("\x99\x07\x02\x00\x41\x00\x41\x07\x01\x00\x00\x04\x00\x00\x00"))
	f.Add([]byte("\x5c\x06\x00\x00\x00\x06\x00\x04\x00\x06\x02\x00\x01\x04\x00"))
	// Rewrite-then-pop on three backlogged flows, one of them two deep.
	f.Add([]byte("\x11\x00\x00\x00\x01\x00\x02\x00\x00\x06\x00\x04\x00\x06\x01\x04\x00\x06\x02\x04\x00\x04\x00\x04\x00"))

	type item struct {
		key    float64
		sub    float64
		serial uint64
		p      *sched.Packet
	}
	type chain struct {
		key, sub float64
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		genRank := func() (float64, float64) {
			key := float64(rng.Intn(64)-32) / 4 // quantized: ties are common
			sub := float64(rng.Intn(3) - 1)
			return key, sub
		}

		// The discipline ranks each packet with the generator's next draw
		// and hands the test its PIFO and the flows' records.
		var nextKey, nextSub float64
		var q *sched.PIFO
		recs := make(map[int]*sched.Flow)
		s := sched.MustNewRanked(sched.Discipline{
			Name: "fuzz",
			Rank: func(_ *sched.RankState, fl *sched.Flow, _ float64, p *sched.Packet) (float64, float64) {
				recs[p.Flow] = fl
				return nextKey, nextSub
			},
			AfterEnqueue: func(_ *sched.RankState, pq *sched.PIFO, _ *sched.Flow, _ *sched.Packet) { q = pq },
		}, sched.Config{})
		registered := make(map[int]bool)
		for flow := 1; flow <= 5; flow++ {
			if err := s.AddFlow(flow, 1); err != nil {
				t.Fatal(err)
			}
			registered[flow] = true
		}

		model := make(map[int][]item) // flow -> queued items in push order
		last := make(map[int]chain)   // flow -> last pushed (post-clamp) rank
		var serial uint64
		var seq int64
		var clamps uint64

		modelMin := func() (*item, int) {
			var min *item
			var minFlow int
			for fl, mq := range model {
				if len(mq) == 0 {
					continue
				}
				head := &mq[0]
				if min == nil ||
					head.key < min.key ||
					(head.key == min.key && (head.sub < min.sub ||
						(head.sub == min.sub && head.serial < min.serial))) {
					min, minFlow = head, fl
				}
			}
			return min, minFlow
		}

		check := func() {
			if q != nil {
				if err := q.CheckSlots(); err != nil {
					t.Fatal(err)
				}
			}
			total := 0
			for flow := 1; flow <= 5; flow++ {
				mq := model[flow]
				total += len(mq)
				bytes := 0.0
				for _, it := range mq {
					bytes += it.p.Length
				}
				if rec := recs[flow]; rec != nil && rec.Len() != len(mq) {
					t.Fatalf("flow %d len = %d, model %d", flow, rec.Len(), len(mq))
				}
				if s.QueuedBytes(flow) != bytes {
					t.Fatalf("flow %d bytes = %v, model %v", flow, s.QueuedBytes(flow), bytes)
				}
			}
			if s.Len() != total {
				t.Fatalf("Len = %d, model %d", s.Len(), total)
			}
			if s.Clamped() != clamps {
				t.Fatalf("Clamped = %d, model %d", s.Clamped(), clamps)
			}
		}

		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			flow := int(arg%5) + 1
			switch op % 8 {
			case 0, 1, 2, 3:
				rawKey, rawSub := genRank()
				seq++
				p := &sched.Packet{Flow: flow, Seq: seq, Length: float64(arg) + 1}
				nextKey, nextSub = rawKey, rawSub
				err := s.Enqueue(0, p)
				if !registered[flow] {
					if !errors.Is(err, sched.ErrUnknownFlow) {
						t.Fatalf("Enqueue on unregistered flow %d = %v, want ErrUnknownFlow", flow, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
				// Replicate the clamp: while the flow is backlogged a rank
				// below its last pushed one is raised to it.
				key, sub := rawKey, rawSub
				if len(model[flow]) > 0 {
					if lc := last[flow]; key < lc.key || (key == lc.key && sub < lc.sub) {
						key, sub = lc.key, lc.sub
						clamps++
					}
				}
				last[flow] = chain{key, sub}
				serial++
				if rec := recs[flow]; rec.LastKey != key || rec.LastSub != sub {
					t.Fatalf("push (%v,%v) ranked (%v,%v), model (%v,%v)",
						rawKey, rawSub, rec.LastKey, rec.LastSub, key, sub)
				}
				model[flow] = append(model[flow], item{key: key, sub: sub, serial: serial, p: p})
			case 4, 5:
				min, minFlow := modelMin()
				got, ok := s.Dequeue(0)
				if min == nil {
					if ok {
						t.Fatalf("Dequeue = %v on empty model", got)
					}
				} else {
					if got != min.p {
						t.Fatalf("Dequeue = %v, model %v (flow %d)", got, min.p, minFlow)
					}
					model[minFlow] = model[minFlow][1:]
				}
			case 6:
				key, sub := genRank()
				if rec := recs[flow]; q != nil && rec != nil {
					q.Rekey(rec, key, sub) // a no-op on an idle flow
				}
				if mq := model[flow]; len(mq) > 0 {
					mq[0].key, mq[0].sub = key, sub
				}
			case 7:
				switch {
				case !registered[flow]:
					if err := s.AddFlow(flow, 1); err != nil {
						t.Fatalf("re-add flow %d: %v", flow, err)
					}
					registered[flow] = true
				case len(model[flow]) > 0:
					if err := s.RemoveFlow(flow); !errors.Is(err, sched.ErrFlowBusy) {
						t.Fatalf("RemoveFlow on backlogged flow %d = %v, want ErrFlowBusy", flow, err)
					}
				default:
					if err := s.RemoveFlow(flow); err != nil {
						t.Fatalf("RemoveFlow(%d): %v", flow, err)
					}
					registered[flow] = false
					delete(recs, flow)
					delete(last, flow) // a re-added flow starts a fresh chain
				}
			}
			check()
		}
		for s.Len() > 0 {
			if _, ok := s.Dequeue(0); !ok {
				t.Fatal("Dequeue empty with Len > 0")
			}
		}
		if _, ok := s.Dequeue(0); ok {
			t.Fatal("Dequeue after drain returned a packet")
		}
	})
}
