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

// put adds id to x as a registered entry of weight 1.
func (x *flowIndex) put(id int) { x.slot(id).w = 1 }

// emptyIndex returns an index with mul that has allocated size slots and
// holds nothing, so that home is defined.
func emptyIndex(mul uint64, size int) *flowIndex {
	x := indexWithMul(mul)
	for id := 0; len(x.slots) < size; id++ {
		x.put(id)
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
		if !x.slots[i].empty() && x.slots[i].id == id {
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

// FuzzFlowIndex checks FlowTable's registry — the open-addressing index,
// the record lease and the epoch release — against a map model of weights
// and records. data[0] picks the multiplier; then op = data[2i+1], arg =
// data[2i+2], id = collidingIDs[arg%len]:
//
//	op%16 0–4   Add (register or re-weight) with weight 1 + arg%3
//	op%16 5–6   Record: lease the flow a record (a fresh, zeroed one)
//	op%16 7–8   Get and Weight
//	op%16 9–11  Remove (an unregistered flow is refused)
//	op%16 12    forget (Drop's way out: registered or not)
//	op%16 13    each: ListFlows ascending, records exactly once
//	op%16 14–15 release: every record goes, every weight stays
//
// After every op each pool id's Get and Weight, the entry count, the load
// (≤ ½) and the records held must agree with the model, and no two flows
// may share a record. Any byte string parses.
func FuzzFlowIndex(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x01\x05\x01\x0e\x00\x07\x01\x09\x00\x0d\x00"))
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := []byte{byte(seed - 1)}
		for i := 0; i < 200; i++ {
			b = append(b, byte(rng.Intn(16)), byte(rng.Intn(256)))
		}
		f.Add(b)
	}
	type entry struct {
		w   float64
		rec *Flow
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var ft FlowTable
		ft.index.mul = indexMuls[int(data[0])%len(indexMuls)] | 1
		model := make(map[int]*entry)
		for i := 1; i+1 < len(data); i += 2 {
			op, id := data[i]%16, collidingIDs[int(data[i+1])%len(collidingIDs)]
			e := model[id]
			switch {
			case op <= 4:
				w := float64(1 + data[i+1]%3)
				if err := ft.Add(id, w); err != nil {
					t.Fatalf("op %d: Add(%d, %v) = %v", i/2, id, w, err)
				}
				if e == nil {
					e = &entry{}
					model[id] = e
				}
				e.w = w
			case op <= 6:
				r := ft.Record(id)
				if e == nil {
					e = &entry{}
					model[id] = e
				}
				if e.rec == nil {
					if *r != (Flow{FlowQ: FlowQ{flow: id}, Weight: e.w, regPos: -1}) {
						t.Fatalf("op %d: flow %d leased a used record %+v", i/2, id, *r)
					}
					e.rec = r
				}
				if r != e.rec {
					t.Fatalf("op %d: Record(%d) = %p, want %p", i/2, id, r, e.rec)
				}
			case op <= 8:
				// checked below for every id
			case op <= 11:
				err := ft.Remove(id)
				if (err == nil) != (e != nil && e.w != 0) {
					t.Fatalf("op %d: Remove(%d) = %v, model %+v", i/2, id, err, e)
				}
				if err == nil {
					delete(model, id)
				}
			case op == 12:
				ft.forget(id)
				delete(model, id)
			case op == 13:
				var ids []int
				for _, fi := range ft.ListFlows() {
					if e := model[fi.Flow]; e == nil || e.w != fi.Weight || len(ids) > 0 && fi.Flow <= ids[len(ids)-1] {
						t.Fatalf("op %d: ListFlows row %+v out of order or unknown", i/2, fi)
					}
					ids = append(ids, fi.Flow)
				}
				seen := make(map[*Flow]bool)
				eachRecord(&ft, func(r *Flow) {
					if seen[r] || model[r.flow] == nil || model[r.flow].rec != r {
						t.Fatalf("op %d: records visited flow %d twice or unknown", i/2, r.flow)
					}
					seen[r] = true
				})
				registered, held := 0, 0
				for _, e := range model {
					registered += bit(e.w != 0)
					held += bit(e.rec != nil)
				}
				if len(ids) != registered || len(seen) != held {
					t.Fatalf("op %d: %d flows listed, %d records visited; model %d and %d", i/2, len(ids), len(seen), registered, held)
				}
			default:
				ft.release()
				for _, e := range model {
					e.rec = nil // a flow pushed by id keeps its entry, as Remove refuses it
				}
			}
			held := make(map[*Flow]bool)
			for _, e := range model {
				if e.rec != nil {
					held[e.rec] = true
				}
			}
			x := &ft.index
			if x.n != len(model) || 2*x.n > len(x.slots) || ft.leased-len(ft.spare) != len(held) {
				t.Fatalf("op %d: n = %d over %d slots, %d records held; model %d flows, %d records", i/2, x.n, len(x.slots), ft.leased-len(ft.spare), len(model), len(held))
			}
			for _, id := range collidingIDs {
				e := model[id]
				if e == nil {
					e = &entry{}
				}
				if got, w := ft.Get(id), ft.Weight(id); got != e.rec || w != e.w {
					t.Fatalf("op %d: flow %d: Get %p, Weight %v; want %p, %v", i/2, id, got, w, e.rec, e.w)
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
		x.put(id)
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
	if x.n != 3 || x.find(a) != nil || !x.slots[2].empty() {
		t.Fatalf("after del: n %d, find(a) %v, slot 2 %+v", x.n, x.find(a), x.slots[2])
	}
	for _, id := range []int{b, c, d} {
		if s := x.find(id); s == nil || s.id != id {
			t.Fatalf("find(%d) = %v after del", id, s)
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
			x.put(id)
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
