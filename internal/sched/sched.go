// Package sched defines the packet-scheduler contract shared by every
// scheduling algorithm in this repository and implements them: the
// tag-based family — SFQ itself, and the baselines the paper compares it
// against, WFQ (PGPS), FQS, SCFQ, Virtual Clock, Delay EDD, FIFO, and
// strict priority — as rank functions over one scheduler (Ranked: rank.go,
// rankfuncs.go), and DRR and the Fair Airport scheduler of Appendix B on
// their own. internal/core names and registers the paper's contribution
// (SFQ, hierarchical SFQ); internal/hier is the scheduler tree.
//
// Time convention: the component that owns the output link drives the
// scheduler. It calls Enqueue(now, p) when a packet arrives and
// Dequeue(now) exactly when the output becomes free, so the packet most
// recently returned by Dequeue is "the packet in service" — the quantity
// that defines the system virtual time v(t) for the self-clocked
// algorithms (SFQ, SCFQ). A Dequeue that returns ok == false marks the end
// of a busy period.
package sched

import (
	"errors"
	"fmt"
	"math"
)

// Packet carries the scheduling metadata for one packet. Length is in
// bytes, times in seconds, rates/weights in bytes per second.
type Packet struct {
	Flow    int     // flow identifier, as registered with AddFlow
	Seq     int64   // per-flow sequence number (informational)
	Length  float64 // bytes; must be > 0 and finite
	Arrival float64 // time the packet arrived at this scheduler
	Rate    float64 // optional per-packet rate r_f^j (eq 36); 0 ⇒ flow weight

	// Payload is opaque data carried through the scheduler (the simulator
	// stores its frame here).
	Payload any

	// Slack is the per-packet scheduling input of the UPS disciplines
	// (internal/pifo): the remaining slack for LSTF, the accumulated
	// upstream offset for FIFO+. It is an *input* set by whoever injects
	// the packet (the replay harness initializes it from a recorded
	// schedule), unlike the tag fields below, which are outputs. 0 means
	// "unset" and the discipline falls back to its per-flow default.
	Slack float64

	// Tags computed by the scheduler on Enqueue, exported for
	// observability and tests. Their meaning depends on the algorithm:
	// start/finish tags for the fair queuing family, timestamp for
	// Virtual Clock (in VirtualFinish), deadline for Delay EDD.
	VirtualStart  float64
	VirtualFinish float64
	Deadline      float64
}

// Interface is the contract every scheduler implements.
type Interface interface {
	// AddFlow registers a flow with the given weight (bytes per second
	// for the rate-oriented algorithms). Weights must be positive and
	// finite. Registering an existing flow updates its weight.
	AddFlow(flow int, weight float64) error

	// RemoveFlow unregisters an idle flow. Removing a flow that still
	// holds queued packets fails with an error wrapping ErrFlowBusy
	// (uniformly, across every registered discipline — the conformance
	// suite pins this); removing an unregistered flow fails with an error
	// wrapping ErrUnknownFlow. Schedulers that implement Reconfigurable
	// offer DrainFlow for graceful removal of a backlogged flow.
	RemoveFlow(flow int) error

	// Enqueue adds p to the scheduler at time now. The packet's flow must
	// be registered. now must be >= any previous time passed to the
	// scheduler.
	Enqueue(now float64, p *Packet) error

	// Dequeue selects the packet to transmit next at time now. ok is
	// false when no packet is queued, which also marks the end of the
	// current busy period.
	Dequeue(now float64) (p *Packet, ok bool)

	// Len returns the number of queued packets.
	Len() int

	// QueuedBytes returns the total bytes queued for the given flow.
	QueuedBytes(flow int) float64
}

// Common errors. Together with ErrFlowDraining (reconfig.go),
// ErrNoCapacityKnob (reconfig.go), and ErrBadState (snapshot.go) these
// sentinels are the complete error vocabulary of the scheduling packages:
// every contract-path failure in sched, internal/core, internal/pifo,
// internal/liveops, and internal/rt wraps exactly one of them, so callers
// branch with errors.Is instead of string matching (TestErrorVocabulary in
// internal/rt pins this across the packages).
var (
	ErrUnknownFlow  = errors.New("sched: unknown flow")
	ErrFlowBusy     = errors.New("sched: flow has queued packets")
	ErrBadWeight    = errors.New("sched: weight must be positive")
	ErrBadPacket    = errors.New("sched: packet length must be positive")
	ErrTimeWentBack = errors.New("sched: time went backwards")
	ErrBadConfig    = errors.New("sched: bad scheduler config")

	// ErrShedding rejects work the data path refuses to queue — a bounded
	// runtime queue is full, or an admission facade is over its backlog
	// cap. Shedding is backpressure, not failure: the request was never
	// accepted, so conservation audits count it on the "refused" side.
	ErrShedding = errors.New("sched: overloaded, request shed")

	// ErrClosed rejects operations on a component that has been shut
	// down. Closing is one-way: a closed runtime drains but accepts
	// nothing new.
	ErrClosed = errors.New("sched: closed")
)

// Flow is a flow's record while it needs one (see FlowTable), reached by
// one index lookup per packet: its weight, the FIFO — whose Len and
// QueuedBytes ARE the flow's queued accounting, there is no second copy —
// and the per-flow tag chain of whichever discipline owns the table. It is
// 112 bytes in the release build: the FIFO's fields, heapOrd, Weight and
// LastFinish fill the first cache line (what an SFQ enqueue and dequeue
// touch); the other chains sit in the second.
type Flow struct {
	FlowQ
	heapOrd int32 // member ordinal in the owning FlowHeap; 0 when not backlogged

	// Class is the table owner's to use: a scheduler tree (internal/hier)
	// keeps there the slot of the class holding the flow. It fills the
	// word after heapOrd.
	Class int32

	// Weight is the registered weight (bytes/second), copied from the
	// flow's slot; 0 for a flow a FlowSet pushed by id.
	Weight float64

	// The tag chain. Each discipline uses the fields its recurrence needs.
	LastFinish float64 // F(p_f^{j-1}): SFQ, SCFQ, WFQ/FQS
	EAT        float64 // expected arrival of the next packet: Virtual Clock, Delay EDD
	Deadline   float64 // d_f for Delay EDD; the default slack for LSTF
	Cum        float64 // cumulative enqueued bytes (SRPT's monotone tag)

	// LastKey, LastSub are the rank of the most recent push — the chain
	// PIFO's monotonizing clamp compares against.
	LastKey, LastSub float64

	// Fair Airport's regulator: how many of the FIFO's front packets it has
	// released into the GSQ, and the position of the flow's pending release
	// in its heap (-1 when none).
	promoted, regPos int32
}

// FlowTable is the flow registry of every scheduler here: one open-addressed
// slot per flow (flowindex.go) holding its weight and its record, leased
// from the table's pool on the flow's first packet (reads never lease). The
// self-clocked rank functions give every record back at the end of a busy
// period by advancing the epoch (release: a slot's record counts only while
// stamped with the epoch, so no flow is walked); other owners keep a record
// until its flow is removed. A registered flow costs its slot (32 bytes,
// two at most at load ≤ ½); one with a record 112 bytes more; one with n
// packets queued one 4-item FIFO chunk (144 bytes) while n ≤ 4 (a ring),
// at most ⌈n/4⌉+1 beyond. The pool keeps what the most records leased at
// once needed. The zero value is ready to use.
type FlowTable struct {
	index    flowIndex
	recs     []*Flow // the pool: recs[:leased] leased this epoch, the rest free
	spare    []*Flow // leased records that Remove gave back, leased again first
	leased   int
	epoch    uint64
	draining DrainSet // flows DrainFlow marked: no arrivals, no re-weighting
}

// live returns s's record if s is an entry stamped with this epoch, or nil.
func (t *FlowTable) live(s *flowSlot) *Flow {
	if s == nil || s.ep != t.epoch {
		return nil
	}
	return s.f
}

// lease gives s's flow a fresh record: a spare, a pooled or a new one.
func (t *FlowTable) lease(s *flowSlot) *Flow {
	var f *Flow
	if n := len(t.spare); n > 0 {
		f, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		if t.leased == len(t.recs) {
			t.recs = append(t.recs, new(Flow))
		}
		f, t.leased = t.recs[t.leased], t.leased+1
	}
	*f = Flow{FlowQ: FlowQ{flow: s.id}, Weight: s.weight(), regPos: -1}
	s.f, s.ep = f, t.epoch
	return f
}

// release ends the epoch: every record goes back to the pool at once and
// every flow starts a fresh chain. Only an owner whose queues are all
// empty may call it, at the end of a busy period.
func (t *FlowTable) release() {
	poisonRecords(t.recs[:t.leased]...) // schedassert only
	t.epoch, t.leased, t.spare = t.epoch+1, 0, t.spare[:0]
}

// Record returns flow's record, leasing one on first need (an unknown flow
// gets an unregistered entry: a FlowSet push by id). Reads must not use it.
func (t *FlowTable) Record(flow int) *Flow {
	s := t.index.slot(flow)
	if f := t.live(s); f != nil {
		return f
	}
	return t.lease(s)
}

// Get returns flow's record, or nil when it holds none.
func (t *FlowTable) Get(flow int) *Flow { return t.live(t.index.find(flow)) }

// Weight returns flow's registered weight, 0 when it is not registered.
func (t *FlowTable) Weight(flow int) float64 {
	if s := t.index.find(flow); s != nil {
		return s.weight()
	}
	return 0
}

// positive reports whether x can be a weight or a packet length: finite
// and > 0. NaN and +Inf pass a bare `x <= 0` test, and one such tag in a
// heap breaks the order for every flow.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// Add registers (or re-weights) a flow, keeping its tag chain. A draining
// flow is refused: it finishes its backlog and disappears.
func (t *FlowTable) Add(flow int, weight float64) error {
	if t.draining.Draining(flow) {
		return fmt.Errorf("%w: %d", ErrFlowDraining, flow)
	}
	if !positive(weight) {
		return fmt.Errorf("%w: flow %d weight %v", ErrBadWeight, flow, weight)
	}
	s := t.index.slot(flow)
	s.w = weight
	if f := t.live(s); f != nil {
		f.Weight = weight
	}
	return nil
}

// Remove unregisters an idle flow; its record, if any, goes back to the
// pool. An idle flow's FIFO holds no chunk: none goes back to a chunk pool.
func (t *FlowTable) Remove(flow int) error {
	if t.Weight(flow) == 0 {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	if f := t.Get(flow); f != nil && f.n > 0 {
		return fmt.Errorf("%w: %d", ErrFlowBusy, flow)
	}
	t.forget(flow)
	return nil
}

// forget deletes flow's entry and gives its record, if any, back.
func (t *FlowTable) forget(flow int) {
	if f := t.Get(flow); f != nil {
		poisonRecords(f) // schedassert only
		t.spare = append(t.spare, f)
	}
	t.index.del(flow)
}

// Drains returns the flows DrainFlow marked, for an owner that decides
// itself when a flow is idle: a scheduler tree, whose flows may queue in
// another discipline.
func (t *FlowTable) Drains() *DrainSet { return &t.draining }

// Lookup validates p against the registry — registered flow, finite
// positive length, not draining — and returns its flow's record: the one
// flow-keyed lookup of an Enqueue.
func (t *FlowTable) Lookup(p *Packet) (*Flow, error) {
	s := t.index.find(p.Flow)
	if s == nil || s.w <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFlow, p.Flow)
	}
	if !positive(p.Length) {
		return nil, fmt.Errorf("%w: flow %d length %v", ErrBadPacket, p.Flow, p.Length)
	}
	if !t.draining.Empty() && t.draining.Draining(p.Flow) {
		return nil, fmt.Errorf("%w: %d", ErrFlowDraining, p.Flow)
	}
	if f := t.live(s); f != nil {
		return f, nil
	}
	return t.lease(s), nil // the flow's first packet of the epoch
}

// QueuedBytes returns the bytes queued for flow, exactly zero when idle.
func (t *FlowTable) QueuedBytes(flow int) float64 {
	if f := t.Get(flow); f != nil {
		return f.bytes
	}
	return 0
}

// QueuedCount returns the packets queued for flow.
func (t *FlowTable) QueuedCount(flow int) int {
	if f := t.Get(flow); f != nil {
		return int(f.n)
	}
	return 0
}

// EffRate returns the rate to use for p: its per-packet rate if set,
// otherwise the flow weight. This implements the generalized per-packet
// rate allocation of eq (36).
func EffRate(p *Packet, weight float64) float64 {
	if p.Rate > 0 {
		return p.Rate
	}
	return weight
}
