package sched

import (
	"math/bits"
	"math/rand/v2"
)

// flowIndex is FlowTable's id → record index: linear probing over a
// power-of-two array of {id, record} slots at load ≤ ½ (a hit probes ≈ 1.5
// slots and compares ids without touching records), with backward-shift
// deletion instead of tombstones. home is multiply-shift under a random
// odd multiplier drawn when the table first allocates, so no caller can
// choose ids that share one cluster (TestFlowIndexFloodGuard), folded and
// spread again by the golden ratio: plain multiply-shift with a random
// multiplier clusters ids 0 … 4 095 past 4 probes for 5 % of draws. Slot
// order thus differs between tables and runs, and no output may depend on
// it: queuedTotal sums over each, Each walks the sorted Weights.
type flowIndex struct {
	slots []indexSlot
	mul   uint64 // odd once the table has allocated
	shift uint   // 64 − log2(len(slots))
	n     int
}

// indexSlot is one entry; f == nil marks an empty slot.
type indexSlot struct {
	id int
	f  *Flow
}

// home is id's first probe position.
func (x *flowIndex) home(id int) int {
	h := uint64(id) * x.mul
	h ^= h >> 32
	return int(h * goldenMul >> (x.shift & 63))
}

// goldenMul is the Fibonacci-hashing multiplier ⌊2⁶⁴/φ⌋, odd.
const goldenMul = 0x9E3779B97F4A7C15

// get returns id's record, or nil.
func (x *flowIndex) get(id int) *Flow {
	if x.n == 0 {
		return nil
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.id == id || s.f == nil {
			return s.f // an empty slot's f is nil whatever its id
		}
	}
}

// put adds f under its flow id, which must be absent.
func (x *flowIndex) put(f *Flow) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		if x.mul == 0 {
			x.mul = rand.Uint64() | 1
		}
		x.slots = make([]indexSlot, max(8, 2*len(old)))
		x.shift = uint(64 - bits.TrailingZeros(uint(len(x.slots))))
		for _, s := range old {
			if s.f != nil {
				x.insert(s)
			}
		}
	}
	x.insert(indexSlot{f.flow, f})
	x.n++
}

// insert places s in the first empty slot from its home on.
func (x *flowIndex) insert(s indexSlot) {
	mask := len(x.slots) - 1
	i := x.home(s.id)
	for x.slots[i].f != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// del removes id's record, if any. Backward shift closes the hole: a
// later entry of the cluster moves into it when the hole lies cyclically
// between the entry's home and its slot, which keeps every entry reachable
// from its home without a tombstone.
func (x *flowIndex) del(id int) {
	if x.n == 0 {
		return
	}
	mask := len(x.slots) - 1
	i := x.home(id)
	for ; x.slots[i].id != id || x.slots[i].f == nil; i = (i + 1) & mask {
		if x.slots[i].f == nil {
			return
		}
	}
	for j := (i + 1) & mask; x.slots[j].f != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].id))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
}

// each calls fn for every record, in slot order (see the type comment).
func (x *flowIndex) each(fn func(*Flow)) {
	for _, s := range x.slots {
		if s.f != nil {
			fn(s.f)
		}
	}
}

// reset empties the index, keeping its array and multiplier.
func (x *flowIndex) reset() {
	clear(x.slots)
	x.n = 0
}
