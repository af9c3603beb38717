package sched

// HeadSFQ is SFQ in head-ranked form over the flow core: the interior of
// the paper's Section 3 hierarchical SFQ, whose flows are pseudo-flows (a
// tree's child classes, records the caller owns). A pseudo-flow queues one
// logical packet at a time. Its start tag max(v, F_prev) is stamped when it
// becomes the pseudo-flow's head (eq 4), not on arrival; its finish tag
// comes from the length actually sent (eq 5), which only the caller knows
// once the packet is out; and while the pseudo-flow stays backlogged the
// same logical packet is re-keyed in place to that finish, keeping the
// serial it was queued under, which breaks ties between equal start tags.
// v follows the logical packet in service and jumps to the busy period's
// maximum finish tag when the caller ends it (Idle). The zero value is
// ready to use.
type HeadSFQ struct {
	fs FlowSet // only its heap, pool and count: the records are the caller's

	// V is the virtual time, MaxFinish the largest finish tag served, and
	// Serial the last serial handed out (snapshot state).
	V, MaxFinish float64
	Serial       uint64
}

// Activate queues lp as f's logical packet, stamping its start tag in
// VirtualStart and the next serial in Seq. f must be idle here.
func (q *HeadSFQ) Activate(f *Flow, lp *Packet) {
	lp.VirtualStart = max(q.V, f.LastFinish)
	q.Serial++
	lp.Seq = int64(q.Serial)
	q.Load(f, lp)
}

// Load queues lp as f's logical packet under the start tag and serial it
// carries: Activate's second half, and how a snapshot's queued logical
// packets come back.
func (q *HeadSFQ) Load(f *Flow, lp *Packet) {
	f.FlowQ.Push(&q.fs.pool, lp.VirtualStart, 0, uint64(lp.Seq), lp)
	q.fs.heap.Push(f)
	q.fs.total++
}

// Head returns the logical packet to serve, the least (start tag, serial),
// and moves v to its start tag. Callers ensure Len() > 0.
func (q *HeadSFQ) Head() *Packet {
	_, lp := q.fs.heap.minHead()
	q.V = lp.VirtualStart
	return lp
}

// Served ends the service of f's logical packet lp, the one Head returned,
// length bytes long: its finish tag chains f's tags and joins the busy
// period's maximum. If more is set, f stays backlogged and lp is re-keyed
// in place to start at that finish; otherwise f leaves.
func (q *HeadSFQ) Served(f *Flow, lp *Packet, length float64, more bool) {
	finish := lp.VirtualStart + length/f.Weight
	f.LastFinish = finish
	if finish > q.MaxFinish {
		q.MaxFinish = finish
	}
	if !more {
		q.fs.PopFlow()
		return
	}
	lp.VirtualStart = finish
	f.SetHeadKey(finish, 0)
	if h := &q.fs.heap; h.n == 1 {
		// The only member wins whatever its key: only its copy changes.
		h.keys[f.heapOrd-1] = keyBits(finish)
	} else {
		h.Fix(f)
	}
}

// Idle ends the busy period: v jumps to the maximum finish tag served.
func (q *HeadSFQ) Idle() { q.V = q.MaxFinish }

// Len returns the number of backlogged pseudo-flows.
func (q *HeadSFQ) Len() int { return q.fs.Len() }

// CheckSlots verifies the flow heap's slot-key invariant (fuzz harness).
func (q *HeadSFQ) CheckSlots() error { return q.fs.heap.CheckSlots() }
