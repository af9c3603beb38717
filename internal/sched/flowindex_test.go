package sched

import (
	"math"
	"math/rand"
	"testing"
)

// indexWithMul returns an empty index that hashes with mul (made odd) in
// place of a random multiplier, so that a failing input replays.
func indexWithMul(mul uint64) *flowIndex { return &flowIndex{mul: mul | 1} }

// indexMuls are the multipliers FuzzFlowIndex picks from; collidingIDs
// holds ids crafted against the first.
var indexMuls = []uint64{goldenMul, 1, 0xD6E8FEB86659FD93}

// idsAtHome returns the first n nonnegative ids whose home is slot in x.
func idsAtHome(x *flowIndex, slot, n int) []int {
	var ids []int
	for id := 0; len(ids) < n; id++ {
		if x.home(id) == slot {
			ids = append(ids, id)
		}
	}
	return ids
}

// emptyIndex returns an index with mul that has allocated size slots and
// holds nothing, so that home is defined.
func emptyIndex(mul uint64, size int) *flowIndex {
	x := indexWithMul(mul)
	for id := 0; len(x.slots) < size; id++ {
		x.put(&Flow{FlowQ: FlowQ{flow: id}})
	}
	x.reset()
	return x
}

// collidingIDs is FuzzFlowIndex's id pool: small ints, their negatives,
// the extremes, small ints shifted into the high bits, and six ids that
// home at the last slot of an 8-slot table under indexMuls[0] — and so at
// the end of every larger table, where their cluster wraps.
var collidingIDs = func() []int {
	seen := make(map[int]bool)
	var ids []int
	add := func(id int) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for i := 0; i < 8; i++ {
		add(i)
		add(-i - 1)
		add(i << 58)
		add(i << 61)
		add(-i << 60)
	}
	add(math.MinInt)
	add(math.MinInt + 1)
	add(math.MaxInt)
	add(math.MaxInt - 1)
	for _, id := range idsAtHome(emptyIndex(indexMuls[0], 8), 7, 6) {
		add(id)
	}
	return ids
}()

// slotOfID returns id's slot position in x, or -1.
func slotOfID(x *flowIndex, id int) int {
	for i := range x.slots {
		if x.slots[i].f != nil && x.slots[i].id == id {
			return i
		}
	}
	return -1
}

// meanProbes is the mean number of slots a successful lookup of ids reads.
func meanProbes(x *flowIndex, ids []int) float64 {
	mask := len(x.slots) - 1
	sum := 0
	for _, id := range ids {
		sum += (slotOfID(x, id)-x.home(id))&mask + 1
	}
	return float64(sum) / float64(len(ids))
}

// FuzzFlowIndex checks flowIndex against a map[int]*Flow. data[0] picks the
// multiplier; then op = data[2i+1], arg = data[2i+2], id =
// collidingIDs[arg%len]:
//
//	op%16 0–6   put (when id is absent)
//	op%16 7–8   get
//	op%16 9–13  del
//	op%16 14    each: every record exactly once
//	op%16 15    reset
//
// After every op each pool id's get, the count and the load (≤ ½) must
// agree with the map. Any byte string parses.
func FuzzFlowIndex(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x01\x00\x02\x00\x03\x09\x01\x09\x00\x0e\x00"))
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := []byte{byte(seed - 1)}
		for i := 0; i < 200; i++ {
			b = append(b, byte(rng.Intn(15)), byte(rng.Intn(256)))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		x := indexWithMul(indexMuls[int(data[0])%len(indexMuls)])
		model := make(map[int]*Flow)
		for i := 1; i+1 < len(data); i += 2 {
			op, id := data[i]%16, collidingIDs[int(data[i+1])%len(collidingIDs)]
			switch {
			case op <= 6:
				if model[id] == nil {
					r := &Flow{FlowQ: FlowQ{flow: id}}
					x.put(r)
					model[id] = r
				}
			case op <= 8:
				if got := x.get(id); got != model[id] {
					t.Fatalf("op %d: get(%d) = %p, want %p", i/2, id, got, model[id])
				}
			case op <= 13:
				x.del(id)
				delete(model, id)
			case op == 14:
				seen := make(map[*Flow]bool)
				x.each(func(r *Flow) {
					if seen[r] || model[r.flow] != r {
						t.Fatalf("op %d: each visited flow %d twice or unknown", i/2, r.flow)
					}
					seen[r] = true
				})
				if len(seen) != len(model) {
					t.Fatalf("op %d: each visited %d records, want %d", i/2, len(seen), len(model))
				}
			default:
				x.reset()
				clear(model)
			}
			if x.n != len(model) || 2*x.n > len(x.slots) {
				t.Fatalf("op %d: n = %d over %d slots, model %d", i/2, x.n, len(x.slots), len(model))
			}
			for _, id := range collidingIDs {
				if got := x.get(id); got != model[id] {
					t.Fatalf("op %d: get(%d) = %p, want %p", i/2, id, got, model[id])
				}
			}
		}
	})
}

// TestFlowIndexDeleteWrapsCluster deletes the first entry of a probe
// cluster that runs past the array's end: backward shift must move the
// wrapped entry whose home is the last slot back there, leave in place the
// entry already at its home, and move the one homed at slot 0 into the
// hole the first move left.
func TestFlowIndexDeleteWrapsCluster(t *testing.T) {
	x := emptyIndex(goldenMul, 8)
	last := idsAtHome(x, 7, 2)
	a, b, c, d := last[0], last[1], idsAtHome(x, 1, 1)[0], idsAtHome(x, 0, 1)[0]
	for _, id := range []int{a, b, c, d} {
		x.put(&Flow{FlowQ: FlowQ{flow: id}})
	}
	want := func(slot, id int) {
		t.Helper()
		if got := slotOfID(x, id); got != slot {
			t.Fatalf("flow %d in slot %d, want %d", id, got, slot)
		}
	}
	if len(x.slots) != 8 {
		t.Fatalf("%d slots, want 8", len(x.slots))
	}
	want(7, a)
	want(0, b)
	want(1, c)
	want(2, d)
	x.del(a)
	want(7, b)
	want(1, c)
	want(0, d)
	if x.n != 3 || x.get(a) != nil || x.slots[2].f != nil {
		t.Fatalf("after del: n %d, get(a) %v, slot 2 %+v", x.n, x.get(a), x.slots[2])
	}
	for _, id := range []int{b, c, d} {
		if r := x.get(id); r == nil || r.flow != id {
			t.Fatalf("get(%d) = %v after del", id, r)
		}
	}
}

// TestFlowIndexFloodGuard: 1 024 ids that all home at slot 0 of a
// 2 048-slot table under the golden-ratio multiplier (whoever knows the
// multiplier finds them in milliseconds) make one long cluster there, but
// cost a mean of at most 4 probes per lookup under random multipliers —
// the seam's, and the ones zero-value tables draw.
func TestFlowIndexFloodGuard(t *testing.T) {
	const slots, n = 2048, 1024
	flood := idsAtHome(emptyIndex(goldenMul, slots), 0, n)
	fill := func(x *flowIndex) float64 {
		for _, id := range flood {
			x.put(&Flow{FlowQ: FlowQ{flow: id}})
		}
		if len(x.slots) != slots {
			t.Fatalf("%d slots for %d ids, want %d", len(x.slots), n, slots)
		}
		return meanProbes(x, flood)
	}
	if got := fill(indexWithMul(goldenMul)); got < n/4 {
		t.Fatalf("golden multiplier: mean probes %.1f, the flood ids do not collide", got)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20; k++ {
		mul := rng.Uint64()
		if got := fill(indexWithMul(mul)); got > 4 {
			t.Errorf("multiplier %#x: mean probes %.2f > 4", mul|1, got)
		}
		var x flowIndex
		if got := fill(&x); got > 4 {
			t.Errorf("zero-value table (multiplier %#x): mean probes %.2f > 4", x.mul, got)
		}
	}
}
