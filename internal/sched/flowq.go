package sched

// This file implements the flow-indexed scheduling core shared by the
// fair-queuing family: per-flow packet FIFOs (FlowQ) backed by pooled
// fixed-size chunks, and a winner tree over the *backlogged flows*
// (FlowHeap, flowheap.go) keyed by each flow's head item. The
// records holding both are found through FlowTable's open-addressing
// index (flowindex.go).
//
// The structure exploits the property the paper's tag equations guarantee
// (eqs 4–5 and their SCFQ/Virtual Clock/EDD analogues): within one flow,
// tags are nondecreasing in arrival order, so a flow's earliest-tag packet
// is always the head of its FIFO. Scheduling therefore only needs to order
// flow heads: Enqueue/Dequeue cost O(log B) in the number of backlogged
// flows — O(1) within a flow — instead of O(log N) in the number of queued
// packets, and a deep backlog on one flow no longer slows every other
// flow's heap operations. The per-flow monotonicity invariant is asserted
// under the `schedassert` build tag (see assert_on.go).
//
// Pop order is bit-identical to the packet-level tag heap this replaced:
// every pushed item carries the same strict total order (key, sub, serial)
// that heap used, the serial is the scheduler-wide push sequence number, and
// min-over-flow-heads equals min-over-all-packets whenever each flow's
// FIFO is ordered — which is exactly the asserted invariant.

// flowChunkSize is the number of items per pooled FIFO chunk: 4 items ×
// 32 bytes and the link are 136 bytes, in the allocator's 144-byte size
// class. That is 36 bytes an item, as 8 items are in the 288-byte class, so
// a deep flow pays per packet what it would with 8, and a flow at most 4
// deep — nearly every flow of a backlogged link, and every pseudo-flow of
// an SFQ tree interior — pays half. A FIFO that fits in one chunk uses it
// as a ring (see FlowQ), so such a flow holds exactly one chunk however its
// packets come and go. The ring is what makes small chunks safe: a FIFO
// that only fills chunks front to back slides across chunk boundaries (at
// 16 items a flow 4 deep holds 1.24 chunks on average), and at 8 items
// hierarchical interiors then keep reaching new chunk peaks, which breaks
// the zero-allocation tests. It must be a power of two (ring indices are
// masked) and at most 255 (they are uint8).
const flowChunkSize = 4

// chunkMask reduces a head-ring index modulo flowChunkSize.
const chunkMask = flowChunkSize - 1

// flowItem is one queued packet with its scheduling key. The triple
// (key, sub, serial) is the same strict total order the packet-level tag
// heap used: primary tag, tie-breaking secondary key, scheduler-wide push
// sequence.
type flowItem struct {
	key    float64
	sub    float64
	serial uint64
	p      *Packet
}

// less orders by key, then secondary key, then push order.
func (a flowItem) less(b flowItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.serial < b.serial
}

// flowChunk is one pooled segment of a FlowQ ring.
type flowChunk struct {
	items [flowChunkSize]flowItem
	next  *flowChunk
}

// ChunkPool is a LIFO free list of FlowQ chunks threaded through their
// next links, so put never allocates and get hands out the chunk freed
// last, which is still in cache. One pool is owned by each scheduler
// (matching the single-threaded event-domain model of PacketPool): a FIFO
// holds chunks only while it holds packets, and whichever flow grows next
// reuses them, so steady-state FIFO growth allocates nothing. The pool is
// never trimmed: it keeps what the peak concurrent backlog needed.
type ChunkPool struct {
	free *flowChunk
	n    int // chunks on the list
	made int // chunks ever allocated, each pooled or held by a FIFO (tests)
}

// get returns a zeroed chunk, reusing a pooled one when available. Chunks
// enter the pool fully zeroed (Pop zeroes each served slot; Release zeroes
// live slots; the schedassert build checks in put), so no memclr is needed
// here.
func (cp *ChunkPool) get() *flowChunk {
	c := cp.free
	if c == nil {
		cp.made++
		return &flowChunk{}
	}
	cp.free, c.next = c.next, nil
	cp.n--
	return c
}

// put recycles a fully zeroed chunk.
func (cp *ChunkPool) put(c *flowChunk) {
	assertZeroChunk(c)
	c.next, cp.free = cp.free, c
	cp.n++
}

// Len returns the number of pooled chunks (for tests and observability).
func (cp *ChunkPool) Len() int { return cp.n }

// FlowQ is one flow's packet FIFO: a chunked queue with O(1) push, pop,
// peek, and byte accounting. Chunks come from the scheduler's ChunkPool
// and go back to it as they empty: an empty FIFO holds no chunk, one
// holding n ≤ 4 packets holds exactly one, and one holding more at most
// ⌈n/4⌉+1.
//
// The head chunk is a ring of hn items from slot hi onward, wrapping
// modulo flowChunkSize; while the FIFO fits in it (head == tail) a push
// writes at (hi+hn) mod 4 and a pop advances hi. A 5th packet links a
// second chunk, and chunks after the head fill linearly from slot 0 up to
// ti. When the head chunk empties, its successor becomes the head ring,
// and once that is the tail again the FIFO wraps in it.
//
// The count is an int32: a flow holds fewer than 2³¹ packets, 64 GiB of
// queued items.
type FlowQ struct {
	flow int

	head *flowChunk // chunk holding the front item
	tail *flowChunk // chunk holding the back item; head while one chunk holds all

	// mono is the per-flow monotonicity assertion's memory of the last
	// push: empty in the release build (assert_off.go), and kept off the
	// struct's end, where a zero-size field would cost a padding word.
	mono pushAssert

	hi uint8 // slot of the front item within head
	hn uint8 // items in head, from slot hi on, wrapping
	ti uint8 // one past the back item within tail; 0 while head == tail

	n     int32
	bytes float64
}

// ID returns the flow id this FIFO belongs to.
func (fq *FlowQ) ID() int { return fq.flow }

// Len returns the number of queued packets.
func (fq *FlowQ) Len() int { return int(fq.n) }

// QueuedBytes returns the total bytes queued, in O(1). It is exactly zero
// when the FIFO is empty (the accumulator is reset on drain, so float
// residue cannot leak into emptiness checks).
func (fq *FlowQ) QueuedBytes() float64 { return fq.bytes }

// item returns the item k places behind the front: in the head ring when
// k < hn, otherwise walking (k-hn)/4 chunks past the head. Callers must
// ensure k < Len().
func (fq *FlowQ) item(k int) *flowItem {
	if k < int(fq.hn) {
		return &fq.head.items[(int(fq.hi)+k)&chunkMask]
	}
	c := fq.head.next
	for k -= int(fq.hn); k >= flowChunkSize; k -= flowChunkSize {
		c = c.next
	}
	return &c.items[k]
}

// headItem returns the front item. Callers must ensure Len() > 0.
func (fq *FlowQ) headItem() flowItem { return fq.head.items[fq.hi] }

// at returns the packet k places behind the front. Callers must ensure
// k < Len().
func (fq *FlowQ) at(k int) *Packet { return fq.item(k).p }

// Push appends p with the given scheduling key triple. Keys within a flow
// must be nondecreasing under (key, sub, serial) — the tag-monotonicity
// invariant the flow-indexed family relies on; violations panic under the
// schedassert build tag.
func (fq *FlowQ) Push(pool *ChunkPool, key, sub float64, serial uint64, p *Packet) {
	it := flowItem{key: key, sub: sub, serial: serial, p: p}
	fq.mono.check(fq, it)
	if fq.head == fq.tail && fq.hn < flowChunkSize {
		// The FIFO fits in its head chunk: write into the ring.
		if fq.head == nil {
			fq.head = pool.get()
			fq.tail = fq.head
		}
		fq.head.items[(fq.hi+fq.hn)&chunkMask] = it
		fq.hn++
	} else {
		if fq.ti == 0 || fq.ti == flowChunkSize {
			// The head ring is full (ti is 0 while head == tail) or the
			// tail chunk is: link a fresh tail.
			c := pool.get()
			fq.tail.next = c
			fq.tail, fq.ti = c, 0
		}
		fq.tail.items[fq.ti] = it
		fq.ti++
	}
	fq.n++
	fq.bytes += p.Length
}

// SetHeadKey rewrites the front item's (key, sub) in place, leaving its
// serial untouched. Callers must ensure Len() > 0 and must re-Fix the
// owning FlowHeap afterwards.
//
// This is the dynamic-priority hook for *flow-level* disciplines (SRPT's
// remaining-backlog rank changes on every enqueue and dequeue): the head
// key then represents the flow's current priority rather than a per-packet
// tag, so the per-flow monotonicity invariant — which constrains pushed
// items, not head rewrites — still governs the FIFO behind it.
func (fq *FlowQ) SetHeadKey(key, sub float64) {
	it := fq.item(0)
	it.key, it.sub = key, sub
}

// Pop removes and returns the front packet. Callers must ensure Len() > 0.
// Fully consumed chunks return to the pool, and so does the last one when
// the FIFO drains: an idle flow holds no chunk.
func (fq *FlowQ) Pop(pool *ChunkPool) *Packet {
	p := fq.head.items[fq.hi].p
	fq.drop(pool, p)
	return p
}

// drop is Pop for a caller that already holds the front packet, p.
func (fq *FlowQ) drop(pool *ChunkPool, p *Packet) {
	fq.head.items[fq.hi] = flowItem{} // release the *Packet reference
	fq.hi = (fq.hi + 1) & chunkMask
	fq.hn--
	fq.n--
	fq.bytes -= p.Length
	if fq.hn > 0 {
		return
	}
	c := fq.head
	fq.head, fq.hi = c.next, 0
	pool.put(c)
	switch {
	case fq.head == nil: // drained
		fq.tail = nil
		fq.bytes = 0 // pinned, so float residue cannot leak into emptiness
	case fq.head == fq.tail: // back to one chunk: it becomes the ring
		fq.hn, fq.ti = fq.ti, 0
	default:
		fq.hn = flowChunkSize
	}
}

// eachItem calls fn on every queued item, front to back: the head ring
// through item, then each later chunk from slot 0.
func (fq *FlowQ) eachItem(fn func(*flowItem)) {
	for k := 0; k < int(fq.hn); k++ {
		fn(fq.item(k))
	}
	if fq.head == fq.tail {
		return
	}
	for c := fq.head.next; c != nil; c = c.next {
		end := flowChunkSize
		if c == fq.tail {
			end = int(fq.ti)
		}
		for i := 0; i < end; i++ {
			fn(&c.items[i])
		}
	}
}
