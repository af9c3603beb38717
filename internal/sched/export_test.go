package sched

// Operations and accessors that only tests use: the flow-core fuzzers' peek,
// drop and re-key ops and the counts they check. No scheduler needs them, so
// they live with the tests.

// SetFlowKey is Rekey by flow id; no-op for a flow the set has not seen.
func (fs *FlowSet) SetFlowKey(flow int, key, sub float64) {
	if f := fs.Get(flow); f != nil {
		fs.Rekey(f, key, sub)
	}
}

// Peek returns the packet that PopMin would return, and its key, without
// removing it. Returns (nil, 0) when empty.
func (fs *FlowSet) Peek() (*Packet, float64) {
	f := fs.heap.Min()
	if f == nil {
		return nil, 0
	}
	return f.Head()
}

// FlowLen returns the number of packets queued for one flow, in O(1).
func (fs *FlowSet) FlowLen(flow int) int { return fs.QueuedCount(flow) }

// Backlogged returns the number of flows currently holding packets — the
// B in the O(log B) heap costs.
func (fs *FlowSet) Backlogged() int { return fs.heap.Len() }

// Drop forgets a flow whatever its state: queued packets are discarded,
// their chunks go back to the pool, and the flow leaves the heap and the
// table (chaos churn paths; Remove is the checked way out for a registered
// flow).
func (fs *FlowSet) Drop(flow int) {
	if f := fs.Get(flow); f != nil {
		fs.total -= int(f.n)
		fs.heap.Remove(f)
		f.Release(&fs.pool)
	}
	fs.forget(flow)
}

// eachRecord calls fn for every record of this epoch, in slot order.
func eachRecord(t *FlowTable, fn func(*Flow)) {
	for i := range t.index.slots {
		if f := t.live(&t.index.slots[i]); f != nil {
			fn(f)
		}
	}
}

// held counts the records the table has leased and not given back.
func (t *FlowTable) held() int { return t.leased - len(t.spare) }

// PooledChunks reports the chunk pool's free-list length (tests,
// observability).
func (fs *FlowSet) PooledChunks() int { return fs.pool.Len() }

// NewFlowQ returns an empty FIFO for the given flow id.
func NewFlowQ(flow int) *FlowQ { return &FlowQ{flow: flow} }

// Head returns the front packet and its primary key without removing it.
// It returns (nil, 0) when empty.
func (fq *FlowQ) Head() (*Packet, float64) {
	if fq.n == 0 {
		return nil, 0
	}
	it := fq.headItem()
	return it.p, it.key
}

// Release zeroes any live items and returns every chunk to the pool. Drop
// uses it to discard a backlogged flow; the FIFO is empty and reusable
// afterwards.
func (fq *FlowQ) Release(pool *ChunkPool) {
	fq.eachItem(func(it *flowItem) { *it = flowItem{} })
	for c := fq.head; c != nil; {
		next := c.next
		pool.put(c)
		c = next
	}
	fq.head, fq.tail = nil, nil
	fq.hi, fq.hn, fq.ti = 0, 0, 0
	fq.n = 0
	fq.bytes = 0
	fq.mono.reset()
}
