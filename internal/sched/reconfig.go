package sched

import (
	"errors"
	"fmt"
	"sort"
)

// This file defines the live-reconfiguration contract (ROADMAP direction 5:
// operability at scale). A production scheduler cannot drain a link to
// change a weight; SFQ's own analysis says it should not have to — v(t) is
// read off the in-service packet's start tag, so Theorem 1 holds across
// weight and rate changes with no assumption about the service process.
// The optional interfaces below make that operational: schedulers that can
// safely mutate a running configuration implement Reconfigurable, and
// schedulers whose full scheduling state can be serialized for failover
// implement Snapshotter (snapshot.go).

// Reconfiguration errors.
var (
	// ErrFlowDraining rejects operations on a flow that DrainFlow has
	// marked for graceful removal: no new packets, no re-weighting — the
	// flow finishes its backlog and disappears.
	ErrFlowDraining = errors.New("sched: flow is draining")

	// ErrNoCapacityKnob is returned by SetCapacity on disciplines that do
	// not parameterize on an assumed capacity (everything except WFQ/FQS
	// and their PIFO re-expression — which is the paper's point: the
	// self-clocked family has no capacity assumption to mis-set).
	ErrNoCapacityKnob = errors.New("sched: scheduler has no capacity parameter")
)

// Reconfigurable is the optional live-mutation interface. All three
// operations are safe on a running scheduler with queued packets:
//
//   - SetWeight changes a flow's weight for packets that arrive *after*
//     the call; packets already queued keep the tags they were stamped
//     with (their share was fixed at arrival, exactly as the paper's tag
//     equations prescribe — re-tagging the backlog would retroactively
//     rewrite v(t) history).
//   - SetCapacity changes the assumed capacity of the fluid reference
//     system, for disciplines that have one.
//   - DrainFlow removes a flow gracefully: an idle flow is removed
//     immediately; a backlogged flow stops accepting arrivals
//     (ErrFlowDraining) and is unregistered by a later Dequeue once its
//     queue empties. This is the sanctioned way to remove a busy flow —
//     RemoveFlow keeps rejecting that with ErrFlowBusy.
type Reconfigurable interface {
	// SetWeight changes flow's weight (bytes/second). The flow must be
	// registered and not draining; the weight must be positive.
	SetWeight(flow int, weight float64) error

	// SetCapacity changes the assumed capacity (bytes/second) of the
	// discipline's fluid reference system. Disciplines without one return
	// ErrNoCapacityKnob.
	SetCapacity(c float64) error

	// DrainFlow marks flow for graceful removal (see above). Draining an
	// already-draining flow returns ErrFlowDraining.
	DrainFlow(flow int) error
}

// FlowInfo is one registered flow, as reported by FlowLister.
type FlowInfo struct {
	Flow   int
	Weight float64
}

// FlowLister is the optional flow-enumeration interface: sfqsim reads a
// restored scheduler's flows through it.
type FlowLister interface {
	// ListFlows returns every registered flow, sorted by id.
	ListFlows() []FlowInfo
}

// ListFlows returns the registry's flows sorted by id.
func (t *FlowTable) ListFlows() []FlowInfo {
	out := make([]FlowInfo, 0, t.index.n)
	for _, s := range t.index.slots {
		if s.w > 0 {
			out = append(out, FlowInfo{Flow: s.id, Weight: s.w})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// DrainSet tracks flows marked by DrainFlow. The zero value is ready to
// use and costs one empty-map length check on the hot path — Enqueue and
// Dequeue stay allocation-free when nothing is draining.
type DrainSet struct {
	m map[int]struct{}
}

// Draining reports whether flow is marked. O(1), no allocation.
func (d *DrainSet) Draining(flow int) bool {
	if len(d.m) == 0 {
		return false
	}
	_, ok := d.m[flow]
	return ok
}

// Empty reports whether no flow is marked; the hot-path guard.
func (d *DrainSet) Empty() bool { return len(d.m) == 0 }

// Mark adds flow to the set.
func (d *DrainSet) Mark(flow int) {
	if d.m == nil {
		d.m = make(map[int]struct{})
	}
	d.m[flow] = struct{}{}
}

// Clear removes flow from the set.
func (d *DrainSet) Clear(flow int) { delete(d.m, flow) }

// Flows returns the marked flows sorted by id, so drain finalization
// sweeps in a deterministic order.
func (d *DrainSet) Flows() []int {
	if len(d.m) == 0 {
		return nil
	}
	out := make([]int, 0, len(d.m))
	for f := range d.m {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// Restore replaces the set's contents with a snapshot's draining list,
// which must be ascending and name known flows only.
func (d *DrainSet) Restore(flows []int, known func(flow int) bool) error {
	for i, f := range flows {
		if i > 0 && f <= flows[i-1] {
			return fmt.Errorf("%w: draining flows not ascending at %d", ErrBadState, f)
		}
		if !known(f) {
			return fmt.Errorf("%w: draining flow %d not registered", ErrBadState, f)
		}
	}
	d.m = nil
	for _, f := range flows {
		d.Mark(f)
	}
	return nil
}
