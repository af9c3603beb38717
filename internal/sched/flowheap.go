package sched

import "fmt"

// FlowHeap is a hand-rolled indexed 4-ary min-heap over backlogged flows,
// ordered by each flow's head item under the strict total order
// (key, sub, serial): slot i's children are 4i+1 … 4i+4. Its sifts move a
// hole rather than swapping, with no container/heap boxing, and it
// tracks each flow's position (Flow.heapIdx) so Fix and Remove are
// O(log B) without a search. siftDown is bottom-up (see there). The order
// is strict, so the minimum is unique and no schedule depends on shape.
// Every member must be nonempty; callers push a flow when it becomes
// backlogged and pop/remove it when it drains.
//
// Each slot holds a COPY of its flow's head key beside the flow pointer,
// so a comparison reads two adjacent slots instead of chasing flow → chunk
// → item twice. The copy is the heap's second invariant, next to per-flow
// monotonicity: slot key ≡ head item of the slot's flow. Push, Fix and
// FixMin refill the slot from the head item; every path that changes a
// backlogged flow's head must call one of them (CheckSlots verifies).
type FlowHeap struct {
	ss []heapSlot
}

// heapSlot is one backlogged flow with its head item's key triple.
type heapSlot struct {
	key    float64
	sub    float64
	serial uint64
	f      *Flow
}

func slotOf(f *Flow) heapSlot {
	it := &f.head.items[f.hi]
	return heapSlot{key: it.key, sub: it.sub, serial: it.serial, f: f}
}

// less orders by key, then secondary key, then push order.
func (a *heapSlot) less(b *heapSlot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.serial < b.serial
}

// Len returns the number of backlogged flows in the heap.
func (h *FlowHeap) Len() int { return len(h.ss) }

// Min returns the flow whose head item is smallest, or nil when empty.
func (h *FlowHeap) Min() *Flow {
	if len(h.ss) == 0 {
		return nil
	}
	return h.ss[0].f
}

// Push inserts a newly backlogged flow. f must be nonempty.
func (h *FlowHeap) Push(f *Flow) {
	h.ss = append(h.ss, heapSlot{})
	h.siftUp(len(h.ss)-1, 0, slotOf(f))
}

// PopMin removes and returns the minimum flow, or nil when empty. The
// removed flow's heapIdx is reset to -1.
func (h *FlowHeap) PopMin() *Flow {
	if len(h.ss) == 0 {
		return nil
	}
	min := h.ss[0].f
	h.removeAt(0)
	return min
}

// Fix restores heap order after f's head item changed in place (its head
// was popped or its key rewritten while the flow stays backlogged).
func (h *FlowHeap) Fix(f *Flow) {
	i, s := f.heapIdx, slotOf(f)
	if i > 0 && s.less(&h.ss[(i-1)/4]) {
		h.siftUp(i, 0, s)
		return
	}
	h.siftDown(i, s)
}

// FixMin restores heap order after the minimum flow's head changed. Under
// the per-flow monotonicity invariant the new head can only be larger, so
// a single sift-down suffices (and is still safe without the invariant:
// a root that shrank remains the minimum).
func (h *FlowHeap) FixMin() { h.siftDown(0, slotOf(h.ss[0].f)) }

// Remove deletes f from the heap regardless of position (RemoveFlow on a
// backlogged flow, chaos churn). No-op if f is not in the heap.
func (h *FlowHeap) Remove(f *Flow) {
	if f.heapIdx >= 0 {
		h.removeAt(f.heapIdx)
	}
}

// removeAt deletes slot i, refilling the hole with the last slot.
func (h *FlowHeap) removeAt(i int) {
	h.ss[i].f.heapIdx = -1
	n := len(h.ss) - 1
	last := h.ss[n]
	h.ss[n] = heapSlot{}
	h.ss = h.ss[:n]
	if i == n {
		return
	}
	if i > 0 && last.less(&h.ss[(i-1)/4]) {
		h.siftUp(i, 0, last)
		return
	}
	h.siftDown(i, last)
}

// siftUp moves s from hole position i toward the root, but not above
// position top, shifting larger parents down into the hole.
func (h *FlowHeap) siftUp(i, top int, s heapSlot) {
	ss := h.ss
	for i > top {
		parent := (i - 1) / 4
		if !s.less(&ss[parent]) {
			break
		}
		ss[i] = ss[parent]
		ss[i].f.heapIdx = i
		i = parent
	}
	ss[i] = s
	s.f.heapIdx = i
}

// siftDown places s in the subtree under hole i (s must not sort before
// i's parent). Bottom-up: the hole walks to a leaf along the smallest
// child, then s climbs back, never above i; a slot leaving the root
// belongs near the leaves. A full group's minimum is the smaller of the
// two sibling-pair winners, with outcomes turned into indices: distinct
// keys are coin flips the predictor would miss. A key tie between the
// winners branches, as ties come in runs (flows stamped with one v).
func (h *FlowHeap) siftDown(i int, s heapSlot) {
	ss := h.ss
	n := len(ss)
	top := i
	for {
		c := 4*i + 1
		if c+3 < n {
			a := c + before(&ss[c+1], &ss[c])
			b := c + 2 + before(&ss[c+3], &ss[c+2])
			switch {
			case ss[b].key != ss[a].key:
				c = a ^ (a^b)&-before(&ss[b], &ss[a]) // b if it sorts first, else a
			case ss[b].less(&ss[a]):
				c = b
			default:
				c = a
			}
		} else if c < n {
			for j := c + 1; j < n; j++ {
				if ss[j].less(&ss[c]) {
					c = j
				}
			}
		} else {
			break
		}
		ss[i] = ss[c]
		ss[i].f.heapIdx = i
		i = c
	}
	h.siftUp(i, top, s)
}

// before is y.less(x) as 0 or 1, without a branch on the key compare.
func before(y, x *heapSlot) int {
	lt := y.key < x.key
	if y.key == x.key {
		lt = y.less(x)
	}
	r := 0
	if lt {
		r = 1
	}
	return r
}

// CheckSlots verifies the slot-key invariant and the index: every slot's
// (key, sub, serial) equals its flow's head item, heapIdx round-trips, no
// idle flow sits in the heap, and parents do not sort after children. The
// fuzz harnesses call it after every operation.
func (h *FlowHeap) CheckSlots() error {
	for i := range h.ss {
		s := &h.ss[i]
		if s.f.heapIdx != i {
			return fmt.Errorf("slot %d: flow %d has heapIdx %d", i, s.f.flow, s.f.heapIdx)
		}
		if s.f.n == 0 {
			return fmt.Errorf("slot %d: idle flow %d in the heap", i, s.f.flow)
		}
		if want := slotOf(s.f); *s != want {
			return fmt.Errorf("slot %d: flow %d key (%v,%v,%d) != head item (%v,%v,%d)",
				i, s.f.flow, s.key, s.sub, s.serial, want.key, want.sub, want.serial)
		}
		if i > 0 && s.less(&h.ss[(i-1)/4]) {
			return fmt.Errorf("slot %d: sorts before its parent", i)
		}
	}
	return nil
}
