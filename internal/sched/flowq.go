package sched

// This file implements the flow-indexed scheduling core shared by the
// fair-queuing family: per-flow packet FIFOs (FlowQ) backed by pooled
// fixed-size chunks, and an indexed 4-ary min-heap over the *backlogged
// flows* (FlowHeap, flowheap.go) keyed by each flow's head item. The
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

// flowChunkSize is the number of items per pooled FIFO chunk. 64 items ×
// 32 bytes keeps a chunk at 2 KiB: big enough that chunk churn is rare,
// small enough that a drained flow returns its memory promptly.
const flowChunkSize = 64

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

// ChunkPool is a LIFO free list of FlowQ chunks. One pool is owned by each
// scheduler (matching the single-threaded event-domain model of
// PacketPool): chunks released by a draining flow are reused by whichever
// flow grows next, so steady-state FIFO growth allocates nothing.
type ChunkPool struct {
	free []*flowChunk
}

// get returns a zeroed chunk, reusing a pooled one when available. Chunks
// enter the pool fully zeroed (pop zeroes each served slot; Release zeroes
// live slots), so no memclr is needed here.
func (cp *ChunkPool) get() *flowChunk {
	if n := len(cp.free); n > 0 {
		c := cp.free[n-1]
		cp.free[n-1] = nil
		cp.free = cp.free[:n-1]
		return c
	}
	return &flowChunk{}
}

// put recycles a fully zeroed chunk.
func (cp *ChunkPool) put(c *flowChunk) {
	c.next = nil
	cp.free = append(cp.free, c)
}

// Len returns the number of pooled chunks (for tests and observability).
func (cp *ChunkPool) Len() int { return len(cp.free) }

// FlowQ is one flow's packet FIFO: a chunked ring with O(1) push, pop,
// peek, and byte accounting. Chunks come from the scheduler's ChunkPool;
// a drained flow keeps exactly one cached chunk (to make the idle↔
// backlogged transition allocation-free) and Release returns everything.
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

// at returns the packet k places behind the front, walking k/64 chunks.
// Callers must ensure k < Len().
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
// Fully consumed chunks return to the pool; the final chunk is kept cached
// for the flow's next busy period.
func (fq *FlowQ) Pop(pool *ChunkPool) *Packet {
	p := fq.head.items[fq.hi].p
	fq.head.items[fq.hi] = flowItem{} // release the *Packet reference
	fq.hi++
	fq.n--
	fq.bytes -= p.Length
	if fq.n == 0 {
		// Drained: head == tail by construction. Reset in place, keeping
		// the (fully zeroed) chunk cached, and pin bytes to exactly zero.
		fq.hi, fq.ti = 0, 0
		fq.bytes = 0
	} else if fq.hi == flowChunkSize {
		c := fq.head
		fq.head = c.next
		pool.put(c)
		fq.hi = 0
	}
	return p
}

// Release zeroes any live items and returns every chunk — including the
// cached one — to the pool. RemoveFlow uses it so a departed flow holds no
// memory; the FIFO is empty and reusable afterwards.
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
