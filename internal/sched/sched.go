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

// Flow is the one record a scheduler keeps per flow, reached by one index
// lookup per packet: the registration (Weight), the FIFO — whose Len and
// QueuedBytes ARE the flow's queued accounting, there is no second copy —
// and the per-flow tag chain of whichever discipline owns the table. It is
// 112 bytes in the release build: the FIFO's fields, heapOrd, Weight and
// LastFinish fill the first cache line (what an SFQ enqueue and dequeue
// touch); the other chains sit in the second.
type Flow struct {
	FlowQ
	heapOrd int32 // member ordinal in the owning FlowHeap; 0 when not backlogged

	// Weight is the registered weight (bytes/second); 0 while the flow is
	// not registered (a FlowSet makes records for flows pushed by id).
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

// FlowTable is the flow registry shared by the schedulers in this
// repository (including internal/core and internal/pifo): one record per
// flow, found through an open-addressing index (flowindex.go).
// Weights says which flows are registered, and is the control-plane
// view of their weights (the fluid GPS reference shares it, ListFlows and
// the live-state code read it); the per-packet paths go through Lookup and
// use the record. A record is made when its flow first needs one — its
// first packet, as a rule. So a registered, silent flow costs its Weights
// entry; a drained one its 112-byte record too; a backlogged one with n
// packets queued the record plus one 8-item FIFO chunk while n ≤ 8 (the
// chunk is then a ring), and at most ⌈n/8⌉+1 beyond. The zero value is
// ready to use.
type FlowTable struct {
	Weights  map[int]float64
	flows    flowIndex
	draining DrainSet // flows DrainFlow marked: no arrivals, no re-weighting
}

// NewFlowTable returns an empty registry whose Weights map exists already
// (for sharing with a GPS reference before the first Add).
func NewFlowTable() FlowTable {
	return FlowTable{Weights: make(map[int]float64)}
}

// Record returns flow's record, creating an unregistered one on first
// sight. Read accessors must not come through here.
func (t *FlowTable) Record(flow int) *Flow {
	f := t.flows.get(flow)
	if f == nil {
		f = &Flow{FlowQ: FlowQ{flow: flow}, regPos: -1}
		t.flows.put(f)
	}
	return f
}

// Get returns flow's record, or nil when the table has none (yet).
func (t *FlowTable) Get(flow int) *Flow { return t.flows.get(flow) }

// Registered returns the record of a registered flow, making it if the
// flow has not needed one so far; nil for an unregistered flow.
func (t *FlowTable) Registered(flow int) *Flow {
	w, ok := t.Weights[flow]
	if !ok {
		return nil
	}
	f := t.Record(flow)
	f.Weight = w
	return f
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
	if t.Weights == nil {
		t.Weights = make(map[int]float64)
	}
	t.Weights[flow] = weight
	if f := t.flows.get(flow); f != nil {
		f.Weight = weight
	}
	return nil
}

// Remove unregisters an idle flow and forgets its record. An idle flow's
// FIFO holds no chunk, so nothing goes back to a chunk pool.
func (t *FlowTable) Remove(flow int) error {
	if _, ok := t.Weights[flow]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	if f := t.flows.get(flow); f != nil && f.n > 0 {
		return fmt.Errorf("%w: %d", ErrFlowBusy, flow)
	}
	delete(t.Weights, flow)
	t.flows.del(flow)
	return nil
}

// Lookup validates p against the registry — registered flow, finite
// positive length, not draining — and returns its flow's record: the one
// flow-keyed lookup of an Enqueue.
func (t *FlowTable) Lookup(p *Packet) (*Flow, error) {
	f := t.flows.get(p.Flow)
	if f == nil || f.Weight == 0 {
		// The flow's first packet since it registered, or no such flow.
		if f = t.Registered(p.Flow); f == nil {
			return nil, fmt.Errorf("%w: %d", ErrUnknownFlow, p.Flow)
		}
	}
	if !positive(p.Length) {
		return nil, fmt.Errorf("%w: flow %d length %v", ErrBadPacket, p.Flow, p.Length)
	}
	if !t.draining.Empty() && t.draining.Draining(p.Flow) {
		return nil, fmt.Errorf("%w: %d", ErrFlowDraining, p.Flow)
	}
	return f, nil
}

// QueuedBytes returns the bytes queued for flow, exactly zero when idle.
func (t *FlowTable) QueuedBytes(flow int) float64 {
	if f := t.flows.get(flow); f != nil {
		return f.bytes
	}
	return 0
}

// QueuedCount returns the packets queued for flow.
func (t *FlowTable) QueuedCount(flow int) int {
	if f := t.flows.get(flow); f != nil {
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
