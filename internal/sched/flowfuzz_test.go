package sched

import "testing"

// FuzzFlowQHeap drives a FlowSet (FlowQ FIFOs + FlowHeap + ChunkPool)
// through an arbitrary byte-encoded stream of interleaved pushes, pops,
// and flow drops, in lockstep with a naive model: per-flow item slices
// and a linear scan for the global (key, sub, serial) minimum. Every
// divergence — pop identity, peek, length, per-flow bytes, backlogged
// count — fails the run, and so does a heap slot whose copied key differs
// from its flow's head item (CheckSlots, after every operation). The byte
// grammar is op = data[2i], arg =
// data[2i+1]:
//
//	op%4 == 0,1  push on flow arg%5+1 with the flow's key advanced by
//	             (arg>>4)/4 — keys are nondecreasing per flow, as the
//	             schedulers guarantee; sub is fixed per flow
//	op%4 == 2    pop the global minimum
//	op%4 == 3    drop flow arg%5+1 entirely (RemoveFlow path)
func FuzzFlowQHeap(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x10\x01\x25\x02\x00\x00\xf3\x03\x00\x02\x00\x02\x00"))
	f.Add([]byte("\x00\x00\x01\x00\x00\x01\x01\x01\x02\x00\x02\x00\x02\x00\x02\x00"))
	f.Add([]byte("\x03\x02\x00\x41\x00\x41\x03\x01\x00\x00\x02\x00\x03\x00\x00\x00"))
	// Five backlogged flows, then Drop of the flow at heap index 1 and of
	// another interior one, pops between.
	f.Add([]byte("\x00\x00\x00\x10\x00\x20\x00\x30\x00\x40\x03\x01\x02\x00\x03\x02\x02\x00\x02\x00\x02\x00"))

	type item struct {
		key    float64
		sub    float64
		serial uint64
		p      *Packet
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs FlowSet
		model := make(map[int][]item) // flow -> queued items in push order
		lastKey := make(map[int]float64)
		var serial uint64
		var seq int64

		check := func() {
			if err := fs.CheckSlots(); err != nil {
				t.Fatal(err)
			}
			total, backlogged := 0, 0
			for flow, q := range model {
				if len(q) > 0 {
					backlogged++
				}
				total += len(q)
				bytes := 0.0
				for _, it := range q {
					bytes += it.p.Length
				}
				if fs.FlowLen(flow) != len(q) {
					t.Fatalf("flow %d len = %d, model %d", flow, fs.FlowLen(flow), len(q))
				}
				if fs.FlowBytes(flow) != bytes {
					t.Fatalf("flow %d bytes = %v, model %v", flow, fs.FlowBytes(flow), bytes)
				}
			}
			if fs.Len() != total {
				t.Fatalf("Len = %d, model %d", fs.Len(), total)
			}
			if fs.Backlogged() != backlogged {
				t.Fatalf("Backlogged = %d, model %d", fs.Backlogged(), backlogged)
			}
			// Model minimum under the strict total order.
			var min *item
			for _, q := range model {
				if len(q) == 0 {
					continue
				}
				head := &q[0]
				if min == nil ||
					head.key < min.key ||
					(head.key == min.key && (head.sub < min.sub ||
						(head.sub == min.sub && head.serial < min.serial))) {
					min = head
				}
			}
			p, key := fs.Peek()
			if min == nil {
				if p != nil {
					t.Fatalf("Peek = %v on empty model", p)
				}
			} else if p != min.p || key != min.key {
				t.Fatalf("Peek = (%v,%v), model head (%v,%v)", p, key, min.p, min.key)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			flow := int(arg%5) + 1
			switch op % 4 {
			case 0, 1:
				lastKey[flow] += float64(arg>>4) / 4
				serial++
				seq++
				p := &Packet{Flow: flow, Seq: seq, Length: float64(arg) + 1}
				fs.Push(flow, lastKey[flow], float64(flow), p)
				model[flow] = append(model[flow], item{
					key: lastKey[flow], sub: float64(flow), serial: serial, p: p,
				})
			case 2:
				var minFlow int
				var min *item
				for fl, q := range model {
					if len(q) == 0 {
						continue
					}
					head := &q[0]
					if min == nil ||
						head.key < min.key ||
						(head.key == min.key && (head.sub < min.sub ||
							(head.sub == min.sub && head.serial < min.serial))) {
						min, minFlow = head, fl
					}
				}
				got := fs.PopMin()
				if min == nil {
					if got != nil {
						t.Fatalf("PopMin = %v on empty model", got)
					}
				} else {
					if got != min.p {
						t.Fatalf("PopMin = %v, model %v (flow %d)", got, min.p, minFlow)
					}
					model[minFlow] = model[minFlow][1:]
				}
			case 3:
				fs.Drop(flow)
				delete(model, flow)
				delete(lastKey, flow) // a re-added flow starts a fresh chain
			}
			check()
		}
		// Drain: everything left must come out in total order.
		for fs.Len() > 0 {
			if fs.PopMin() == nil {
				t.Fatal("PopMin = nil with Len > 0")
			}
		}
		if fs.PopMin() != nil {
			t.Fatal("PopMin after drain returned a packet")
		}
	})
}
