package sched

import (
	"math/bits"
	"math/rand/v2"
)

// flowIndex is FlowTable's id → slot index: linear probing over a
// power-of-two array of 32-byte slots at load ≤ ½ (a hit probes ≈ 1.5
// slots and compares ids without touching records), with backward-shift
// deletion instead of tombstones. home is multiply-shift under a random
// odd multiplier drawn when the table first allocates, so no caller can
// choose ids that share one cluster (TestFlowIndexFloodGuard), folded and
// spread again by the golden ratio: plain multiply-shift with a random
// multiplier clusters ids 0 … 4 095 past 4 probes for 5 % of draws. Slot
// order thus differs between tables and runs, and no output may depend on
// it: ListFlows sorts, queuedTotal sums.
type flowIndex struct {
	slots []flowSlot
	mul   uint64 // odd once the table has allocated
	shift uint   // 64 − log2(len(slots))
	n     int
}

// flowSlot is one flow's entry: its weight (unregistered for a flow a
// FlowSet pushed by id) and its record, the flow's only while ep is the
// table's epoch. A slot of weight 0 is empty: one field to test keeps find
// within the inliner's budget.
type flowSlot struct {
	id int
	w  float64
	f  *Flow
	ep uint64
}

// unregistered is the weight of an entry that holds no registered flow, so
// that it is not empty.
const unregistered = -1

func (s *flowSlot) empty() bool { return s.w == 0 }

// weight returns the registered weight, 0 for an unregistered entry.
func (s *flowSlot) weight() float64 { return max(s.w, 0) }

// home is id's first probe position.
func (x *flowIndex) home(id int) int {
	h := uint64(id) * x.mul
	h ^= h >> 32
	return int(h * goldenMul >> (x.shift & 63))
}

// goldenMul is the Fibonacci-hashing multiplier ⌊2⁶⁴/φ⌋, odd.
const goldenMul = 0x9E3779B97F4A7C15

// find returns id's slot, or nil. The pointer is good until the next
// addition or del.
func (x *flowIndex) find(id int) *flowSlot {
	if x.n == 0 {
		return nil
	}
	for i := x.home(id); ; i = (i + 1) & (len(x.slots) - 1) {
		s := &x.slots[i]
		if s.empty() {
			return nil
		}
		if s.id == id {
			return s
		}
	}
}

// slot returns id's slot, adding an unregistered entry when id has none
// (good until the next addition or del).
func (x *flowIndex) slot(id int) *flowSlot {
	if s := x.find(id); s != nil {
		return s
	}
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		if x.mul == 0 {
			x.mul = rand.Uint64() | 1
		}
		x.slots, x.n = make([]flowSlot, max(8, 2*len(old))), 0
		x.shift = uint(64 - bits.TrailingZeros(uint(len(x.slots))))
		for _, s := range old {
			if !s.empty() {
				*x.slot(s.id) = s
			}
		}
	}
	mask := len(x.slots) - 1
	i := x.home(id)
	for !x.slots[i].empty() {
		i = (i + 1) & mask
	}
	x.n++
	x.slots[i].id, x.slots[i].w = id, unregistered
	return &x.slots[i]
}

// del removes id's entry, if any. Backward shift closes the hole: a later
// entry of the cluster moves into it when the hole lies cyclically between
// the entry's home and its slot, which keeps every entry reachable from its
// home without a tombstone.
func (x *flowIndex) del(id int) {
	if x.n == 0 {
		return
	}
	mask := len(x.slots) - 1
	i := x.home(id)
	for ; x.slots[i].id != id || x.slots[i].empty(); i = (i + 1) & mask {
		if x.slots[i].empty() {
			return
		}
	}
	for j := (i + 1) & mask; !x.slots[j].empty(); j = (j + 1) & mask {
		if (j-x.home(x.slots[j].id))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = flowSlot{}
	x.n--
}

// reset empties the index, keeping its array and multiplier.
func (x *flowIndex) reset() {
	clear(x.slots)
	x.n = 0
}
