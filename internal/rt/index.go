package rt

import (
	"math/bits"
	"math/rand/v2"
)

// entryIndex maps flow ids to flow entries: the runtime's flow table (under
// Runtime.mu) and each shard's ledger table (under the shard lock). It is
// sched's FlowTable index over a different record: linear probing over a
// power-of-two array of entry pointers at load ≤ ½ (a probe compares the
// entry's flow id, and the caller reads the entry anyway), backward-shift
// deletion, and a random odd multiplier drawn when the table first
// allocates, so no caller can choose ids that share one cluster. It is
// written for *flowEntry and nothing else so that get, the probe of every
// dequeued packet, inlines (a generic index over pointers does not).
type entryIndex struct {
	slots []*flowEntry // nil marks an empty slot
	mul   uint64       // odd once the table has allocated
	shift uint         // 64 − log2(len(slots))
	n     int
}

// goldenMul is the Fibonacci-hashing multiplier ⌊2⁶⁴/φ⌋, odd.
const goldenMul = 0x9E3779B97F4A7C15

// home is id's first probe position.
func (x *entryIndex) home(id int) int {
	h := uint64(id) * x.mul
	h ^= h >> 32
	return int(h * goldenMul >> (x.shift & 63))
}

// get returns id's entry, or nil.
func (x *entryIndex) get(id int) *flowEntry {
	if x.n == 0 {
		return nil
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		if e := x.slots[i]; e == nil || e.flow == id {
			return e
		}
	}
}

// put files e under its flow id, replacing the entry already there.
func (x *entryIndex) put(e *flowEntry) {
	if x.n > 0 {
		mask := len(x.slots) - 1
		for i := x.home(e.flow); x.slots[i] != nil; i = (i + 1) & mask {
			if x.slots[i].flow == e.flow {
				x.slots[i] = e
				return
			}
		}
	}
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		if x.mul == 0 {
			x.mul = rand.Uint64() | 1
		}
		x.slots = make([]*flowEntry, max(8, 2*len(old)))
		x.shift = uint(64 - bits.TrailingZeros(uint(len(x.slots))))
		for _, o := range old {
			if o != nil {
				x.insert(o)
			}
		}
	}
	x.insert(e)
	x.n++
}

// insert places e in the first empty slot from its home on.
func (x *entryIndex) insert(e *flowEntry) {
	mask := len(x.slots) - 1
	i := x.home(e.flow)
	for x.slots[i] != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = e
}

// del removes id's entry, if any. Backward shift closes the hole: a later
// entry of the cluster moves into it when the hole lies cyclically between
// the entry's home and its slot, which keeps every entry reachable from its
// home without a tombstone.
func (x *entryIndex) del(id int) {
	if x.n == 0 {
		return
	}
	mask := len(x.slots) - 1
	i := x.home(id)
	for ; x.slots[i] == nil || x.slots[i].flow != id; i = (i + 1) & mask {
		if x.slots[i] == nil {
			return
		}
	}
	for j := (i + 1) & mask; x.slots[j] != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].flow))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = nil
	x.n--
}
