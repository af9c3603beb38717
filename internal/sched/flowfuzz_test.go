package sched

import (
	"math/rand"
	"testing"
)

// fuzzFlows is the flow-id range of FuzzFlowQHeap: more than 16 flows, so
// the flow heap's winner tree grows twice past its first 8 leaves, with
// ordinals freed and reused on the way.
const fuzzFlows = 32

// FuzzFlowQHeap drives a FlowSet (FlowQ FIFOs + FlowHeap + ChunkPool)
// through an arbitrary byte-encoded stream of interleaved pushes, pops,
// flow drops and head re-keys, in lockstep with a naive model: per-flow
// item slices and a linear scan for the global (key, sub, serial) minimum.
// Every divergence — pop identity, peek, length, per-flow bytes, backlogged
// count — fails the run, and so does a heap slot whose copied key differs
// from its flow's head item (CheckSlots, after every operation). Chunks are
// accounted after every operation too: an idle flow holds none, one
// holding n packets at most ⌈n/flowChunkSize⌉+1, and the pooled ones plus
// those the FIFOs hold are every chunk ever made. The byte grammar is
// op = data[2i], arg = data[2i+1], flow = arg%32+1:
//
//	op%5 == 0,1  push on flow with the flow's key advanced by (arg>>4)/4 —
//	             keys are nondecreasing per flow, as the schedulers
//	             guarantee; sub is fixed per flow
//	op%5 == 2    pop the global minimum
//	op%5 == 3    drop flow entirely (RemoveFlow path)
//	op%5 == 4    SetFlowKey on flow: its head's key moves by
//	             (arg>>5 − 4)/4, down or up, and its sub becomes op>>6
//
// Any byte string parses; a trailing odd byte is ignored.
func FuzzFlowQHeap(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x10\x01\x25\x02\x00\x00\xf3\x03\x00\x02\x00\x02\x00"))
	f.Add([]byte("\x00\x00\x01\x00\x00\x01\x01\x01\x02\x00\x02\x00\x02\x00\x02\x00"))
	f.Add([]byte("\x03\x02\x00\x41\x00\x41\x03\x01\x00\x00\x02\x00\x03\x00\x00\x00"))
	f.Add([]byte("\x00\x00\x00\x10\x00\x20\x00\x30\x00\x40\x03\x01\x02\x00\x03\x02\x02\x00\x02\x00\x02\x00"))
	// Every flow backlogged (three heap levels, a partial fourth group),
	// then pops, re-keys both ways and drops at random.
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(wideHeapStream(seed))
	}

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

		// modelMin scans the model's heads for the (key, sub, serial) minimum.
		modelMin := func() (min *item, minFlow int) {
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
			return min, minFlow
		}
		check := func() {
			if err := fs.CheckSlots(); err != nil {
				t.Fatal(err)
			}
			total, backlogged, held := 0, 0, 0
			for flow, q := range model {
				if len(q) > 0 {
					backlogged++
				}
				c := fs.Get(flow).heldChunks()
				if len(q) == 0 && c != 0 {
					t.Fatalf("idle flow %d holds %d chunks", flow, c)
				}
				if bound := (len(q)+flowChunkSize-1)/flowChunkSize + 1; len(q) > 0 && c > bound {
					t.Fatalf("flow %d holds %d chunks for %d packets, want <= %d", flow, c, len(q), bound)
				}
				held += c
				total += len(q)
				bytes := 0.0
				for _, it := range q {
					bytes += it.p.Length
				}
				if fs.FlowLen(flow) != len(q) {
					t.Fatalf("flow %d len = %d, model %d", flow, fs.FlowLen(flow), len(q))
				}
				if fs.QueuedBytes(flow) != bytes {
					t.Fatalf("flow %d bytes = %v, model %v", flow, fs.QueuedBytes(flow), bytes)
				}
			}
			if fs.Len() != total {
				t.Fatalf("Len = %d, model %d", fs.Len(), total)
			}
			if fs.Backlogged() != backlogged {
				t.Fatalf("Backlogged = %d, model %d", fs.Backlogged(), backlogged)
			}
			if fs.PooledChunks()+held != fs.pool.made {
				t.Fatalf("%d chunks pooled + %d held, %d made", fs.PooledChunks(), held, fs.pool.made)
			}
			min, _ := modelMin()
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
			flow := int(arg%fuzzFlows) + 1
			switch op % 5 {
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
				min, minFlow := modelMin()
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
			case 4:
				if q := model[flow]; len(q) > 0 {
					q[0].key += float64(int(arg>>5)-4) / 4
					q[0].sub = float64(op >> 6)
					fs.SetFlowKey(flow, q[0].key, q[0].sub)
				} else {
					fs.SetFlowKey(flow, 0, 0) // idle or unseen: a no-op
				}
			}
			check()
		}
		// Drain: everything left must come out in total order.
		for fs.Len() > 0 {
			min, minFlow := modelMin()
			if got := fs.PopMin(); got != min.p {
				t.Fatalf("drain: PopMin = %v, model %v (flow %d)", got, min.p, minFlow)
			}
			model[minFlow] = model[minFlow][1:]
		}
		if fs.PopMin() != nil {
			t.Fatal("PopMin after drain returned a packet")
		}
	})
}

// wideHeapStream is a FuzzFlowQHeap input that pushes to every flow, then
// runs 300 random ops weighted towards pushes, pops and re-keys, with keys
// advancing in quarter steps so that cross-flow key ties are common.
func wideHeapStream(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for fl := 0; fl < fuzzFlows; fl++ {
		b = append(b, 0, byte(fl+fuzzFlows*rng.Intn(8)))
	}
	for i := 0; i < 300; i++ {
		op := []byte{0, 1, 0, 1, 2, 2, 3, 4, 69, 134, 199}[rng.Intn(11)] // 4, 69, 134, 199: re-key with sub 0..3
		b = append(b, op, byte(rng.Intn(256)))
	}
	return b
}
