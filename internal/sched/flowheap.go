package sched

import (
	"fmt"
	"math"
)

// FlowHeap is the priority queue over backlogged flows, ordered by each
// flow's head item under the strict total order (key, sub, serial). The
// order is strict, so the minimum is unique and no schedule depends on the
// structure's shape. Every member must be nonempty; callers push a flow
// when it becomes backlogged and fix or remove it when its head changes.
//
// It is a winner tree (a tournament) over dense arrays. Its leaves are
// slots, a power of two of them: a flow entering it takes a free slot o
// (Flow.heapOrd is o+1; 0 means "not a member"), and keys[o] and ms[o] hold
// a copy of its head item and its record. A free slot is an empty leaf,
// its key the largest and its tie-breakers emptyLeaf's, so it loses to
// every member. Each internal node of win holds the slot that wins its
// subtree, so win[1] is the minimum. A change at one leaf — the flow's
// head moved, it joined, it left — replays the matches on the path from
// that leaf to the root, one per level against the sibling subtree's
// winner, stopping once a node's winner stands (see replay). The path is
// fixed by the ordinal, so its loads do not wait on the compares, as a
// sifting heap's do. A match is an integer compare (keyBits) whose outcome
// selects, without a branch, the winner's ordinal and key: a distinct-key
// match is a coin flip the predictor would miss. A key tie takes the one
// branch, which ties make predictable as they come in runs (flows stamped
// with one v), to a tie-break that is branch-free again. Nothing but win
// is written per level; a flow record only when its flow joins or leaves.
//
// The copies are the structure's second invariant, next to per-flow
// monotonicity: keys[o] and ms[o] ≡ the head item of member o's flow, so a
// match reads dense arrays instead of chasing flow → chunk → item, and the
// minimum's packet is known before its record is read (minHead). Push and
// Fix refill them from the head item; every path that changes a backlogged
// flow's head must call one of them (CheckSlots verifies).
type FlowHeap struct {
	win  []int32      // win[j] wins subtree j: 1 the root, 2j and 2j+1 the children, leaf+o the leaf of slot o
	leaf int          // slots, and index of the first leaf: len(win)/2
	keys []uint64     // by slot: keyBits of the head key; a free slot's is the largest
	ms   []heapMember // by slot; a free slot's is emptyLeaf
	free []int32      // free slots, taken last-in first-out; room for every slot
	n    int          // members
}

// heapMember is a backlogged flow with the rest of its head item, sub as
// its keyBits image.
type heapMember struct {
	f      *Flow
	p      *Packet
	sub    uint64
	serial uint64
}

// emptyLeaf is a free slot's member: past every member on a tie, since no
// member's serial reaches the largest uint64.
var emptyLeaf = heapMember{sub: math.MaxUint64, serial: math.MaxUint64}

// keyBits maps a key to a uint64 whose unsigned order is the key's float
// order: the sign bit flipped on a positive key, every bit on a negative
// one, after -0 became +0 (x + 0), so the two zeros still tie. NaN, which no
// discipline ranks by, lands past ±Inf in a fixed place. A match is then
// an integer compare, and its winner's key an integer select.
func keyBits(x float64) uint64 {
	b := math.Float64bits(x + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// before is 1 if member a sorts before member b, whose keys are equal, by
// sub, then push order, and 0 otherwise — without a branch: in a run of
// ties (a burst stamped with one v) the outcome is the serials' coin flip.
func (h *FlowHeap) before(a, b int32) int {
	x, y := &h.ms[a], &h.ms[b]
	return bit(x.sub < y.sub) | bit(x.sub == y.sub)&bit(x.serial < y.serial)
}

// Len returns the number of backlogged flows in the heap.
func (h *FlowHeap) Len() int { return h.n }

// Min returns the flow whose head item is smallest, or nil when empty.
func (h *FlowHeap) Min() *Flow {
	f, _ := h.minHead()
	return f
}

// minHead is Min with that flow's head packet, read from the member's copy
// of the head item: the packet's address does not wait for the record and
// the chunk, so its miss overlaps theirs. (nil, nil) when empty.
func (h *FlowHeap) minHead() (*Flow, *Packet) {
	if h.n == 0 {
		return nil, nil
	}
	m := &h.ms[h.win[1]]
	return m.f, m.p
}

// Push inserts a newly backlogged flow. f must be nonempty.
func (h *FlowHeap) Push(f *Flow) {
	if len(h.free) == 0 {
		h.grow()
	}
	k := len(h.free) - 1
	o := h.free[k]
	h.free = h.free[:k]
	h.ms[o].f = f
	f.heapOrd = o + 1
	h.n++
	h.Fix(f)
}

// grow doubles the slots (at least 2: an SFQ interior with two children
// plays one match per served packet) once every slot holds a member, and
// replays every match. Each array is made at its tier's size, so the slots
// in use fill them at every power of two, and the free list has room for
// every slot: the heap draining lower than it ever has does not allocate.
func (h *FlowHeap) grow() {
	old, leaf := h.leaf, max(2, 2*h.leaf)
	win, keys, ms := make([]int32, 2*leaf), make([]uint64, leaf), make([]heapMember, leaf)
	copy(keys, h.keys)
	copy(ms, h.ms)
	h.free = make([]int32, 0, leaf)
	for o := leaf - 1; o >= 0; o-- {
		if o >= old {
			keys[o], ms[o] = math.MaxUint64, emptyLeaf
			h.free = append(h.free, int32(o)) // the lowest is taken first
		}
		win[leaf+o] = int32(o)
	}
	h.win, h.leaf, h.keys, h.ms = win, leaf, keys, ms
	for j := leaf - 1; j > 0; j-- {
		win[j] = h.match(win[2*j], win[2*j+1])
	}
}

// match returns the winner of a and b.
func (h *FlowHeap) match(a, b int32) int32 {
	if ka, kb := h.keys[a], h.keys[b]; kb < ka || kb == ka && h.before(b, a) == 1 {
		return b
	}
	return a
}

// Fix restores the order after f's head item changed in place (its head
// was popped or its key rewritten while the flow stays backlogged).
func (h *FlowHeap) Fix(f *Flow) {
	o := f.heapOrd - 1
	it := f.item(0)
	h.keys[o] = keyBits(it.key)
	h.ms[o].p, h.ms[o].sub, h.ms[o].serial = it.p, keyBits(it.sub), it.serial
	h.replay(o)
}

// Remove deletes f from the heap regardless of position (RemoveFlow on a
// backlogged flow, chaos churn). No-op if f is not in the heap.
func (h *FlowHeap) Remove(f *Flow) {
	if f.heapOrd == 0 {
		return
	}
	o := f.heapOrd - 1
	f.heapOrd = 0
	h.keys[o], h.ms[o] = math.MaxUint64, emptyLeaf
	h.free = append(h.free, o)
	h.n--
	h.replay(o)
}

// replay recomputes the matches from leaf o to the root. Unless o was the
// minimum, it stops at the first node whose winner stands and is not o:
// that node was not o's before either, so nothing above it changes (a
// joining flow that loses early, a leaving flow that was not winning).
// When o was the minimum every node on the path held o, and none stands.
// Two free slots tie, and replay may keep either where match keeps the
// left one: a node over empty subtrees holds some free slot.
func (h *FlowHeap) replay(o int32) {
	win, keys := h.win, h.keys
	i := h.leaf + int(o)
	w := win[i]
	kw := keys[w]
	stop := win[1] != o
	for i > 1 {
		s := win[i^1]
		ks := keys[s]
		lt := bit(ks < kw)
		if ks == kw {
			lt = h.before(s, w)
		}
		w ^= (w ^ s) & int32(-lt) // s if it sorts first
		kw = min(kw, ks)
		i >>= 1
		if stop && win[i] == w && w != o {
			return
		}
		win[i] = w
	}
}

// bit is b as 0 or 1.
func bit(b bool) int {
	r := 0
	if b {
		r = 1
	}
	return r
}

// each calls fn for every member, in slot order.
func (h *FlowHeap) each(fn func(*Flow)) {
	for _, m := range h.ms {
		if m.f != nil {
			fn(m.f)
		}
	}
}

// CheckSlots verifies the copy invariant and the index: every member's
// key and tie-breakers equal its flow's head item, slot → record → slot
// round-trips, no idle flow is a member, every leaf holds its slot, every
// free slot is an empty leaf, the arrays are the tree's size and the free
// list has room for every slot and holds exactly the slots that are not
// members, and every node holds a winner of its two children (either,
// when two free slots tie). The fuzz harnesses call it after every
// operation.
func (h *FlowHeap) CheckSlots() error {
	c := h.leaf
	if len(h.win) != 2*c || len(h.keys) != c || len(h.ms) != c || cap(h.free) < c {
		return fmt.Errorf("%d slots: win %d, keys %d, members %d, free list room %d", c, len(h.win), len(h.keys), len(h.ms), cap(h.free))
	}
	members, isFree := 0, make([]bool, c)
	for _, o := range h.free {
		if o < 0 || int(o) >= c || isFree[o] {
			return fmt.Errorf("free slot %d out of range or listed twice", o)
		}
		isFree[o] = true
	}
	for o := 0; o < c; o++ {
		m := h.ms[o]
		if leaf := h.win[c+o]; leaf != int32(o) {
			return fmt.Errorf("slot %d: leaf holds %d", o, leaf)
		}
		if isFree[o] {
			if m != emptyLeaf || h.keys[o] != math.MaxUint64 {
				return fmt.Errorf("free slot %d: key %#x, member %+v", o, h.keys[o], m)
			}
			continue
		}
		switch {
		case m.f == nil:
			return fmt.Errorf("slot %d: neither a member nor free", o)
		case m.f.heapOrd != int32(o)+1:
			return fmt.Errorf("slot %d: flow %d has slot %d", o, m.f.flow, m.f.heapOrd-1)
		case m.f.n == 0:
			return fmt.Errorf("slot %d: idle flow %d is a member", o, m.f.flow)
		}
		it := m.f.headItem()
		if h.keys[o] != keyBits(it.key) || m.p != it.p || m.sub != keyBits(it.sub) || m.serial != it.serial {
			return fmt.Errorf("slot %d: flow %d key (%#x,%#x,%d) != head item (%v,%v,%d)",
				o, m.f.flow, h.keys[o], m.sub, m.serial, it.key, it.sub, it.serial)
		}
		members++
	}
	if members != h.n || members+len(h.free) != c {
		return fmt.Errorf("%d members and %d free of %d slots, Len %d", members, len(h.free), c, h.n)
	}
	for j := c - 1; j > 0; j-- {
		a, b := h.win[2*j], h.win[2*j+1]
		if w := h.win[j]; w != h.match(a, b) && w != h.match(b, a) {
			return fmt.Errorf("node %d holds %d, its match is won by %d", j, w, h.match(a, b))
		}
	}
	return nil
}
