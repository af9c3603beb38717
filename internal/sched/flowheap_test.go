package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestKeyBitsOrder: the flow heap compares keyBits images, so the mapping
// must be the float order exactly, -0 tying with +0 and the infinities and
// subnormals in place.
func TestKeyBitsOrder(t *testing.T) {
	xs := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0x1p-1022, 1, 1 + 0x1p-52,
		2.5, 1e300, math.MaxFloat64, math.Inf(1),
	}
	for _, a := range xs {
		for _, b := range xs {
			ka, kb := keyBits(a), keyBits(b)
			if (ka < kb) != (a < b) || (ka == kb) != (a == b) {
				t.Errorf("keyBits(%v) = %#x, keyBits(%v) = %#x: order differs from the floats'", a, ka, b, kb)
			}
		}
	}
	if keyBits(math.Inf(1)) == math.MaxUint64 {
		t.Error("+Inf maps onto the empty leaf's key")
	}
}

// TestFlowHeapWideOrdersLikeSort is TestFlowHeapOrdersLikeSort across
// hundreds of flows, so the tree grows through several sizes and recycles
// ordinals: keys below and above zero, both zeros, and ±Inf, with sub keys
// that tie and differ, popped in the (key, sub, serial) order of a sort.
func TestFlowHeapWideOrdersLikeSort(t *testing.T) {
	keys := []float64{math.Inf(-1), -3, -0.5, math.Copysign(0, -1), 0, 0.5, 2, 2, 7, math.Inf(1)}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var fs FlowSet
		nf := 100 + rng.Intn(400)
		var all []heapRec
		serial := 0
		push := func(f int, k, sub float64) {
			serial++
			fs.Push(f, k, sub, &Packet{Flow: f, Seq: int64(serial), Length: 1})
			all = append(all, heapRec{k, sub, serial})
		}
		// Two rounds with a partial drain between them: ordinals freed by
		// the drain are handed out again to flows of the second round.
		for round := 0; round < 2; round++ {
			for f := 1; f <= nf; f++ {
				ki := rng.Intn(len(keys))
				sub := float64(rng.Intn(2))
				for j := 0; j < 1+rng.Intn(3); j++ {
					push(f+round*nf, keys[ki], sub) // nondecreasing within the flow
					ki = min(ki+rng.Intn(2), len(keys)-1)
				}
			}
			if round == 0 {
				for i := rng.Intn(nf); i > 0; i-- {
					p := fs.PopMin()
					all = removeSerial(t, all, int(p.Seq))
				}
			}
			if err := fs.CheckSlots(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.key != b.key {
				return a.key < b.key
			}
			if a.sub != b.sub {
				return a.sub < b.sub
			}
			return a.serial < b.serial
		})
		for i, want := range all {
			p := fs.PopMin()
			if p == nil || int(p.Seq) != want.serial {
				t.Fatalf("seed %d pop %d: got %v, want serial %d (key %v, sub %v)", seed, i, p, want.serial, want.key, want.sub)
			}
		}
		if fs.PopMin() != nil || fs.Backlogged() != 0 {
			t.Fatalf("seed %d: leftovers after full drain", seed)
		}
	}
}

// heapRec is one pushed item as the sort-order oracle sees it.
type heapRec struct {
	key, sub float64
	serial   int
}

// removeSerial deletes the record with the given serial from rs, which
// must hold it.
func removeSerial(t *testing.T, rs []heapRec, serial int) []heapRec {
	t.Helper()
	for i := range rs {
		if rs[i].serial == serial {
			return append(rs[:i], rs[i+1:]...)
		}
	}
	t.Fatalf("popped serial %d was never pushed", serial)
	return nil
}

// TestFlowHeapWritesNoOtherRecord pins what the tree writes: a pop, a
// re-key, an activation and a drop change the records of the flows they
// operate on and of no other flow. The sifting heap it replaced wrote the
// new position into every flow it moved, one per level.
func TestFlowHeapWritesNoOtherRecord(t *testing.T) {
	var fs FlowSet
	const flows = 4096
	for i := 0; i < 2; i++ {
		for f := 0; f < flows; f++ {
			fs.Push(f, float64(i*flows+(f*7919)%flows), 0, &Packet{Flow: f, Length: 1})
		}
	}
	snapshot := func() map[int]Flow {
		m := make(map[int]Flow, flows)
		fs.flows.each(func(f *Flow) { m[f.flow] = *f })
		return m
	}
	check := func(op string, before map[int]Flow, touched ...int) {
		t.Helper()
		if err := fs.CheckSlots(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		ok := make(map[int]bool)
		for _, f := range touched {
			ok[f] = true
		}
		fs.flows.each(func(f *Flow) {
			if old, seen := before[f.flow]; seen && !ok[f.flow] && old != *f {
				t.Errorf("%s wrote flow %d's record", op, f.flow)
			}
		})
	}

	before := snapshot()
	p, f := fs.PopFlow()
	check("PopFlow", before, f.flow)
	if p.Flow != 0 {
		t.Fatalf("popped flow %d, want 0 (key 0)", p.Flow)
	}

	before = snapshot()
	fs.SetFlowKey(100, -1, 0)
	check("Rekey", before, 100)
	if fs.heap.Min().flow != 100 {
		t.Fatalf("re-keyed flow 100 is not the minimum")
	}

	before = snapshot()
	fs.Push(flows, 0.5, 0, &Packet{Flow: flows, Length: 1})
	check("Push", before, flows)

	before = snapshot()
	fs.Drop(200)
	check("Drop", before, 200)
}

// TestFlowHeapDrainsLowerWithoutAllocating: the free-ordinal stack has
// room for every ordinal once they are made, so a queue that drains lower
// than it ever has — here to empty, after a warm-up that drained to half —
// and refills allocates nothing.
func TestFlowHeapDrainsLowerWithoutAllocating(t *testing.T) {
	const flows = 1000
	var fs FlowSet
	pkts := make([]Packet, flows)
	fill := func() {
		for f := range pkts {
			if fs.FlowLen(f) == 0 {
				fs.Push(f, float64(f), 0, &pkts[f])
			}
		}
	}
	drainTo := func(n int) {
		for fs.Len() > n {
			fs.PopMin()
		}
	}
	fill()
	floor := flows / 2
	if n := testing.AllocsPerRun(1, func() {
		drainTo(floor) // warm-up: half, then (measured) empty
		fill()
		floor = 0
	}); n != 0 {
		t.Errorf("drain to empty and refill: %v allocations, want 0", n)
	}
}

// TestFlowHeapRekeyBelowTheRoot re-keys a flow that wins its own subtree
// but not the tree: raised, it still beats its sibling leaf but no longer
// the subtree beside it, so the replay must go on past the node that kept
// it; lowered, it must climb to the root.
func TestFlowHeapRekeyBelowTheRoot(t *testing.T) {
	var fs FlowSet
	// Flows 1…8 take ordinals, hence leaves, 1…8: leaves 1–4 meet under
	// one node, 5–8 under the other, and flow 5 (key 0) is the minimum.
	for f, key := range []float64{1, 10, 6, 8, 0, 9, 11, 12} {
		fs.Push(f+1, key, 0, &Packet{Flow: f + 1, Length: 1})
	}
	fs.SetFlowKey(1, 7, 0) // beats flow 2 (10), not flow 3 (6)
	if err := fs.CheckSlots(); err != nil {
		t.Fatalf("raised: %v", err)
	}
	fs.SetFlowKey(1, -1, 0) // below flow 5 (0)
	if err := fs.CheckSlots(); err != nil {
		t.Fatalf("lowered: %v", err)
	}
	for i, want := range []int{1, 5, 3, 4, 6, 2, 7, 8} {
		if p := fs.PopMin(); p == nil || p.Flow != want {
			t.Fatalf("pop %d: got %v, want flow %d", i, p, want)
		}
	}
}
