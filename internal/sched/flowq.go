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
// Pop order is bit-identical to the packet-level TagHeap this replaces:
// every pushed item carries the same strict total order (key, sub, serial)
// TagHeap used, the serial is the scheduler-wide push sequence number, and
// min-over-flow-heads equals min-over-all-packets whenever each flow's
// FIFO is ordered — which is exactly the asserted invariant.

// flowChunkSize is the number of items per pooled FIFO chunk: 16 items ×
// 32 bytes is 512 bytes, the most a backlogged flow leaves unused at each
// end of its FIFO. It is the smallest size that keeps the zero-allocation
// tests exact: with 8, hierarchical interiors keep reaching new chunk peaks.
const flowChunkSize = 16

// flowItem is one queued packet with its scheduling key. The triple
// (key, sub, serial) is the same strict total order TagHeap used: primary
// tag, tie-breaking secondary key, scheduler-wide push sequence.
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

// FlowQ is one flow's packet FIFO: a chunked ring with O(1) push, pop,
// peek, and byte accounting. Chunks come from the scheduler's ChunkPool
// and go back to it as they empty: an empty FIFO holds no chunk, and one
// holding n packets holds at most ⌈n/16⌉+1.
type FlowQ struct {
	flow int

	head *flowChunk // chunk holding the front item
	tail *flowChunk // chunk holding the back item
	hi   int        // index of the front item within head
	ti   int        // one past the back item within tail

	// mono is the per-flow monotonicity assertion's memory of the last
	// push: empty in the release build (assert_off.go), and kept off the
	// struct's end, where a zero-size field would cost a padding word.
	mono pushAssert

	n     int
	bytes float64
}

// NewFlowQ returns an empty FIFO for the given flow id.
func NewFlowQ(flow int) *FlowQ { return &FlowQ{flow: flow} }

// ID returns the flow id this FIFO belongs to.
func (fq *FlowQ) ID() int { return fq.flow }

// Len returns the number of queued packets.
func (fq *FlowQ) Len() int { return fq.n }

// QueuedBytes returns the total bytes queued, in O(1). It is exactly zero
// when the FIFO is empty (the accumulator is reset on drain, so float
// residue cannot leak into emptiness checks).
func (fq *FlowQ) QueuedBytes() float64 { return fq.bytes }

// headItem returns the front item. Callers must ensure Len() > 0.
func (fq *FlowQ) headItem() flowItem { return fq.head.items[fq.hi] }

// at returns the packet k places behind the front, walking (hi+k)/16
// chunks. Callers must ensure k < Len().
func (fq *FlowQ) at(k int) *Packet {
	c, i := fq.head, fq.hi+k
	for ; i >= flowChunkSize; i -= flowChunkSize {
		c = c.next
	}
	return c.items[i].p
}

// Head returns the front packet and its primary key without removing it.
// It returns (nil, 0) when empty.
func (fq *FlowQ) Head() (*Packet, float64) {
	if fq.n == 0 {
		return nil, 0
	}
	it := fq.headItem()
	return it.p, it.key
}

// Push appends p with the given scheduling key triple. Keys within a flow
// must be nondecreasing under (key, sub, serial) — the tag-monotonicity
// invariant the flow-indexed family relies on; violations panic under the
// schedassert build tag.
func (fq *FlowQ) Push(pool *ChunkPool, key, sub float64, serial uint64, p *Packet) {
	it := flowItem{key: key, sub: sub, serial: serial, p: p}
	fq.mono.check(fq, it)
	if fq.tail == nil {
		c := pool.get()
		fq.head, fq.tail = c, c
		fq.hi, fq.ti = 0, 0
	} else if fq.ti == flowChunkSize {
		c := pool.get()
		fq.tail.next = c
		fq.tail = c
		fq.ti = 0
	}
	fq.tail.items[fq.ti] = it
	fq.ti++
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
	fq.head.items[fq.hi].key = key
	fq.head.items[fq.hi].sub = sub
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
	fq.hi++
	fq.n--
	fq.bytes -= p.Length
	if fq.n == 0 || fq.hi == flowChunkSize {
		c := fq.head
		fq.head, fq.hi = c.next, 0 // nil once drained: head == tail
		pool.put(c)
	}
	if fq.n == 0 {
		fq.tail, fq.ti = nil, 0
		fq.bytes = 0 // pinned, so float residue cannot leak into emptiness
	}
}

// Release zeroes any live items and returns every chunk to the pool. Drop
// uses it to discard a backlogged flow; the FIFO is empty and reusable
// afterwards.
func (fq *FlowQ) Release(pool *ChunkPool) {
	for c := fq.head; c != nil; {
		next := c.next
		lo, hi := 0, flowChunkSize
		if c == fq.head {
			lo = fq.hi
		}
		if c == fq.tail {
			hi = fq.ti
		}
		for i := lo; i < hi; i++ {
			c.items[i] = flowItem{}
		}
		pool.put(c)
		c = next
	}
	fq.head, fq.tail = nil, nil
	fq.hi, fq.ti = 0, 0
	fq.n = 0
	fq.bytes = 0
	fq.mono.reset()
}
