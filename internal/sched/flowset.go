package sched

import "fmt"

// FlowSet bundles the flow-indexed core into the drop-in shape the
// tag-based disciplines use: the flow table (one record per flow, holding
// the flow's FIFO), a FlowHeap over the backlogged flows, one ChunkPool,
// and the scheduler-wide push serial that completes the (key, sub, serial)
// strict total order. A discipline looks its flow up once per Enqueue
// (FlowTable.Lookup) and pushes through the record (PushFlow); Dequeue
// needs no lookup, the heap hands the record back. The by-id entry points
// (Push, SetFlowKey, Drop) serve callers with no registry of their own and
// make records for flows they have not seen. The zero value is ready to
// use.
//
// The serial counter increments exactly once per push — the same sequence
// the packet-level TagHeap assigned — which is what makes the flow-indexed
// pop order bit-identical to the packet-heap order it replaced: ties on
// (key, sub) across flows resolve by global push order either way.
type FlowSet struct {
	FlowTable
	heap   FlowHeap
	pool   ChunkPool
	serial uint64
	total  int

	// fluid is the GPS reference system of a WFQ-style discipline (nil
	// otherwise). A flow can be idle here and still hold fluid backlog, so
	// removal and draining wait for both, and a live re-weight moves the
	// fluid share sum first.
	fluid *gps
}

// Push is PushFlow on flow's record, created on first sight.
func (fs *FlowSet) Push(flow int, key, sub float64, p *Packet) {
	fs.PushFlow(fs.Record(flow), key, sub, p)
}

// PushFlow appends p to f's FIFO under the key pair (key, sub), stamping
// the next scheduler-wide serial, and activates the flow in the heap if
// this is its first queued packet. O(log B) on activation, O(1) otherwise.
func (fs *FlowSet) PushFlow(f *Flow, key, sub float64, p *Packet) {
	fs.serial++
	f.FlowQ.Push(&fs.pool, key, sub, fs.serial, p)
	if f.n == 1 {
		fs.heap.Push(f)
	}
	fs.total++
}

// PopMin removes and returns the packet with the smallest (key, sub,
// serial) across all flows, or nil when empty.
func (fs *FlowSet) PopMin() *Packet {
	p, _ := fs.PopFlow()
	return p
}

// PopFlow is PopMin that also returns the record the packet came from. A
// drained flow keeps its record, and its FIFO's last chunk goes back to the
// pool: reactivation takes one from there and allocates nothing.
func (fs *FlowSet) PopFlow() (*Packet, *Flow) {
	f, p := fs.heap.minHead()
	if f == nil {
		return nil, nil
	}
	f.drop(&fs.pool, p)
	if f.n == 0 {
		fs.heap.Remove(f)
	} else {
		fs.heap.Fix(f)
	}
	fs.total--
	return p, f
}

// Rekey rewrites the (key, sub) under which f competes in the cross-flow
// heap — the head item's key — and restores heap order, in O(log B). No-op
// when the flow is idle. Flow-level dynamic-priority disciplines (SRPT in
// internal/pifo, through PIFO.Rekey) call it after every operation that
// changes the flow's priority; tag-based disciplines never need it.
func (fs *FlowSet) Rekey(f *Flow, key, sub float64) {
	if f.n == 0 {
		return
	}
	f.SetHeadKey(key, sub)
	fs.heap.Fix(f)
}

// Len returns the total number of queued packets across all flows.
func (fs *FlowSet) Len() int { return fs.total }

// FlowBytes returns the bytes queued for one flow, in O(1) and exactly
// zero when the flow is idle.
func (fs *FlowSet) FlowBytes(flow int) float64 { return fs.QueuedBytes(flow) }

// idle reports whether flow holds no packets and no fluid backlog.
func (fs *FlowSet) idle(flow int) bool {
	return fs.QueuedCount(flow) == 0 && (fs.fluid == nil || fs.fluid.count[flow] == 0)
}

// Remove unregisters an idle flow (FlowTable.Remove; fluid backlog counts
// as busy). Its FIFO holds no chunk, so a departed flow holds no memory.
// Its tag chain goes with the record: a re-added flow starts a fresh one.
func (fs *FlowSet) Remove(flow int) error {
	if fs.fluid != nil && fs.fluid.count[flow] > 0 {
		return fmt.Errorf("%w: %d", ErrFlowBusy, flow)
	}
	if err := fs.FlowTable.Remove(flow); err != nil {
		return err
	}
	if fs.fluid != nil {
		delete(fs.fluid.count, flow)
	}
	return nil
}

// mutable reports why flow may not be reconfigured: unknown, or draining.
func (fs *FlowSet) mutable(flow int) error {
	if _, ok := fs.Weights[flow]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	if fs.draining.Draining(flow) {
		return fmt.Errorf("%w: %d", ErrFlowDraining, flow)
	}
	return nil
}

// SetWeight implements Reconfigurable.SetWeight for the disciplines built
// on a FlowSet: flow must be registered and not draining. Queued packets
// keep the tags they were stamped with — exactly the fluctuating-rate
// situation Theorem 1 covers. The fluid share sum, if any, is adjusted
// first so B(t)'s rate changes exactly at the mutation point.
func (fs *FlowSet) SetWeight(flow int, weight float64) error {
	if err := fs.mutable(flow); err != nil {
		return err
	}
	if !positive(weight) {
		return fmt.Errorf("%w: flow %d weight %v", ErrBadWeight, flow, weight)
	}
	if fs.fluid != nil {
		fs.fluid.reweigh(flow, weight)
	}
	return fs.Add(flow, weight)
}

// DrainFlow implements Reconfigurable.DrainFlow: an idle flow is removed
// at once, a busy one refuses arrivals from now on and is removed by the
// FinalizeDrains that finds it idle.
func (fs *FlowSet) DrainFlow(flow int) error {
	if err := fs.mutable(flow); err != nil {
		return err
	}
	if fs.idle(flow) {
		return fs.Remove(flow)
	}
	fs.draining.Mark(flow)
	return nil
}

// FinalizeDrains unregisters draining flows that have gone idle. Dequeue
// calls it; with nothing draining it is one length check.
func (fs *FlowSet) FinalizeDrains() {
	if !fs.draining.Empty() {
		fs.finalizeDrains()
	}
}

func (fs *FlowSet) finalizeDrains() {
	for _, f := range fs.draining.Flows() {
		if fs.idle(f) {
			fs.draining.Clear(f)
			_ = fs.Remove(f) // cannot fail: registered, idle, no longer draining
		}
	}
}

// Draining returns the flows marked by DrainFlow, sorted (snapshots).
func (fs *FlowSet) Draining() []int { return fs.draining.Flows() }

// CheckSlots verifies the heap's slot-key invariant (FlowHeap.CheckSlots).
func (fs *FlowSet) CheckSlots() error { return fs.heap.CheckSlots() }
