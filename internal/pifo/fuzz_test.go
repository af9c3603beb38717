package pifo_test

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// FuzzPIFORank drives a sched.PIFO — from outside its package, through the
// API the UPS disciplines here are written against — through an arbitrary op stream whose
// ranks come from a seeded generator — arbitrary, *including decreasing
// within a backlogged flow*, so the monotonizing clamp is part of what is
// being checked — in lockstep with a naive model: per-flow item slices, a
// linear scan for the global minimum, and an explicit replication of the
// clamp rule. Flow-rank rewrites (SetFlowRank, the SRPT hook) are in the
// op mix too — the one path that changes a backlogged flow's head key
// without a push or a pop, so the heap's copy of it must be refreshed:
// CheckSlots runs after every operation. Every divergence fails the run.
//
// Byte grammar: data[0] seeds the rank generator; then op = data[2i+1],
// arg = data[2i+2]:
//
//	op%8 == 0..3  push on flow arg%5+1 under a generated (key, sub);
//	              keys are quantized to quarters so ties are common
//	op%8 == 4,5   pop the global minimum
//	op%8 == 6     rewrite flow arg%5+1's competing rank (SetFlowRank)
//	op%8 == 7     drop flow arg%5+1 entirely
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

		var q sched.PIFO
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
			if err := q.CheckSlots(); err != nil {
				t.Fatal(err)
			}
			total, backlogged := 0, 0
			for flow, mq := range model {
				if len(mq) > 0 {
					backlogged++
				}
				total += len(mq)
				bytes := 0.0
				for _, it := range mq {
					bytes += it.p.Length
				}
				if q.FlowLen(flow) != len(mq) {
					t.Fatalf("flow %d len = %d, model %d", flow, q.FlowLen(flow), len(mq))
				}
				if q.FlowBytes(flow) != bytes {
					t.Fatalf("flow %d bytes = %v, model %v", flow, q.FlowBytes(flow), bytes)
				}
			}
			if q.Len() != total {
				t.Fatalf("Len = %d, model %d", q.Len(), total)
			}
			if q.Backlogged() != backlogged {
				t.Fatalf("Backlogged = %d, model %d", q.Backlogged(), backlogged)
			}
			if q.Clamped() != clamps {
				t.Fatalf("Clamped = %d, model %d", q.Clamped(), clamps)
			}
			min, _ := modelMin()
			p, key := q.Min()
			if min == nil {
				if p != nil {
					t.Fatalf("Min = %v on empty model", p)
				}
			} else if p != min.p || key != min.key {
				t.Fatalf("Min = (%v,%v), model head (%v,%v)", p, key, min.p, min.key)
			}
		}

		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			flow := int(arg%5) + 1
			switch op % 8 {
			case 0, 1, 2, 3:
				rawKey, rawSub := genRank()
				// Replicate the clamp: while the flow is backlogged a rank
				// below its last pushed one is raised to it.
				key, sub, wantClamp := rawKey, rawSub, false
				if len(model[flow]) > 0 {
					if lc := last[flow]; key < lc.key || (key == lc.key && sub < lc.sub) {
						key, sub = lc.key, lc.sub
						wantClamp = true
						clamps++
					}
				}
				last[flow] = chain{key, sub}
				serial++
				seq++
				p := &sched.Packet{Flow: flow, Seq: seq, Length: float64(arg) + 1}
				gotKey, gotSub, gotClamp := q.Push(flow, rawKey, rawSub, p)
				if gotKey != key || gotSub != sub || gotClamp != wantClamp {
					t.Fatalf("Push(%v,%v) = (%v,%v,%v), model (%v,%v,%v)",
						rawKey, rawSub, gotKey, gotSub, gotClamp, key, sub, wantClamp)
				}
				model[flow] = append(model[flow], item{key: key, sub: sub, serial: serial, p: p})
			case 4, 5:
				min, minFlow := modelMin()
				got := q.Pop()
				if min == nil {
					if got != nil {
						t.Fatalf("Pop = %v on empty model", got)
					}
				} else {
					if got != min.p {
						t.Fatalf("Pop = %v, model %v (flow %d)", got, min.p, minFlow)
					}
					model[minFlow] = model[minFlow][1:]
				}
			case 6:
				key, sub := genRank()
				q.SetFlowRank(flow, key, sub)
				if mq := model[flow]; len(mq) > 0 {
					mq[0].key, mq[0].sub = key, sub
				}
			case 7:
				q.Drop(flow)
				delete(model, flow)
				delete(last, flow) // a re-added flow starts a fresh chain
			}
			check()
		}
		for q.Len() > 0 {
			if q.Pop() == nil {
				t.Fatal("Pop = nil with Len > 0")
			}
		}
		if q.Pop() != nil {
			t.Fatal("Pop after drain returned a packet")
		}
	})
}
