package sched

import (
	"fmt"

	"repro/internal/statecodec"
)

// This file implements Reconfigurable (live mutation) and Snapshotter
// (deterministic serialization) for Ranked, covering every rank-function
// discipline at once, FIFO and the WFQ oracle included. See snapshot.go for
// the determinism contract.

// FlowRankState is one backlogged flow's clamp-chain entry (the rank its
// most recent push actually used).
type FlowRankState struct {
	Flow int     `json:"flow"`
	Key  float64 `json:"key"`
	Sub  float64 `json:"sub,omitempty"`
}

func (fr *FlowRankState) codec(c *statecodec.Codec) {
	c.Int("flow", &fr.Flow)
	c.Float("key", &fr.Key)
	c.FloatOmit("sub", &fr.Sub)
}

// PIFOState is the serializable form of a PIFO: the flow-indexed backlog,
// the per-flow clamp chains of the backlogged flows (a drained flow's chain
// is dead — the next push starts fresh — so only backlogged chains are
// schedule state), and the clamp counter.
type PIFOState struct {
	Queue   FlowSetState    `json:"queue"`
	Last    []FlowRankState `json:"last,omitempty"`
	Clamped uint64          `json:"clamped,omitempty"`
}

func (st *PIFOState) codec(c *statecodec.Codec) {
	statecodec.Struct(c, "queue", &st.Queue, (*FlowSetState).codec)
	statecodec.SliceOmit(c, "last", &st.Last, (*FlowRankState).codec)
	c.UintOmit("clamped", &st.Clamped)
}

// CaptureState serializes the queue in canonical form.
func (q *PIFO) CaptureState() PIFOState {
	st := PIFOState{Queue: q.fs.CaptureState(), Clamped: q.clamped}
	st.Last = make([]FlowRankState, 0, len(st.Queue.Flows))
	for _, f := range st.Queue.Flows {
		r := q.fs.Get(f.Flow)
		st.Last = append(st.Last, FlowRankState{Flow: f.Flow, Key: r.LastKey, Sub: r.LastSub})
	}
	return st
}

// RestoreState loads st into an empty PIFO. The clamp chains must cover
// exactly the backlogged flows, and — except for a single-packet flow
// whose head rank may have been rewritten through Rekey — a flow's chain
// entry must equal its FIFO tail rank (the rank of its most recent push,
// which per-flow monotonicity pins to the tail).
func (q *PIFO) RestoreState(st PIFOState) error {
	if q.Len() != 0 {
		return fmt.Errorf("%w: restore into non-empty PIFO", ErrBadState)
	}
	if err := q.fs.RestoreState(st.Queue); err != nil {
		return err
	}
	if len(st.Last) != len(st.Queue.Flows) {
		return fmt.Errorf("%w: %d clamp chains for %d backlogged flows", ErrBadState, len(st.Last), len(st.Queue.Flows))
	}
	for i, lr := range st.Last {
		f := st.Queue.Flows[i]
		if lr.Flow != f.Flow {
			return fmt.Errorf("%w: clamp chain %d is for flow %d, backlog has %d", ErrBadState, i, lr.Flow, f.Flow)
		}
		if tail := f.Items[len(f.Items)-1]; len(f.Items) > 1 && (lr.Key != tail.Key || lr.Sub != tail.Sub) {
			return fmt.Errorf("%w: flow %d clamp chain (%v, %v) != tail rank (%v, %v)", ErrBadState, lr.Flow, lr.Key, lr.Sub, tail.Key, tail.Sub)
		}
		r := q.fs.Get(lr.Flow)
		r.LastKey, r.LastSub = lr.Key, lr.Sub
	}
	q.clamped = st.Clamped
	return nil
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
func (q *PIFO) VisitQueued(fn func(*Packet)) { q.fs.VisitQueued(fn) }

// --------------------------------------------------------------- Ranked --

// SetWeight changes flow's weight for packets arriving after the call.
// Queued packets keep the tags they were stamped with — exactly the
// fluctuating-rate situation Theorem 1 covers, so SFQ's fairness holds
// across the change without recomputing anything; the tag chains (Virtual
// Clock's punitive memory, Delay EDD's d_f) survive it; the fluid GPS share
// sum, when one is attached, moves at the mutation point
// (FlowSet.SetWeight). The discipline's per-flow defaults are re-derived
// (OnAddFlow — LSTF's default slack tracks 1/weight) exactly as a
// re-registering AddFlow would.
func (s *Ranked) SetWeight(flow int, weight float64) error {
	if err := s.q.fs.SetWeight(flow, weight); err != nil {
		return err
	}
	if s.d.OnAddFlow != nil {
		s.d.OnAddFlow(&s.st, s.q.fs.Record(flow))
	}
	return nil
}

// SetCapacity changes the assumed capacity C of the fluid GPS reference,
// effective from the last advance point — the knob Example 2 shows can
// break WFQ's fairness when it diverges from the real rate. The
// self-clocked and per-flow-clock rank functions have no capacity
// assumption to change (the property Section 2 is built on), and neither
// has the WFQ oracle, whose fluid clock follows C(t) itself.
func (s *Ranked) SetCapacity(c float64) error {
	if !s.d.NeedsGPS {
		return ErrNoCapacityKnob
	}
	if !positive(c) {
		return fmt.Errorf("%w: capacity %v", ErrBadConfig, c)
	}
	s.st.gps.c = c
	return nil
}

// DrainFlow removes flow gracefully: new arrivals are refused, queued
// packets are served normally, and the removal completes when the flow is
// idle in the PIFO and, for GPS-backed disciplines, in the fluid system
// too (see Reconfigurable).
func (s *Ranked) DrainFlow(flow int) error { return s.q.fs.DrainFlow(flow) }

// ListFlows returns the registered flows sorted by id.
func (s *Ranked) ListFlows() []FlowInfo { return s.q.fs.ListFlows() }

// rankFlowState is one flow's registration plus its discipline tag chains.
type rankFlowState struct {
	ID         int     `json:"id"`
	Weight     float64 `json:"weight"`
	LastFinish float64 `json:"lastFinish,omitempty"`
	EAT        float64 `json:"eat,omitempty"`
	Deadline   float64 `json:"deadline,omitempty"`
	Cum        float64 `json:"cum,omitempty"`
}

func (f *rankFlowState) codec(c *statecodec.Codec) {
	c.Int("id", &f.ID)
	c.Float("weight", &f.Weight)
	c.FloatOmit("lastFinish", &f.LastFinish)
	c.FloatOmit("eat", &f.EAT)
	c.FloatOmit("deadline", &f.Deadline)
	c.FloatOmit("cum", &f.Cum)
}

func (f *rankFlowState) key() (int, float64) { return f.ID, f.Weight }

type rankedState struct {
	Last      float64         `json:"last"`
	V         float64         `json:"v"`
	MaxFinish float64         `json:"maxFinish"`
	Busy      bool            `json:"busy"`
	Flows     []rankFlowState `json:"flows"`
	GPS       *GPSState       `json:"gps,omitempty"`
	Queue     PIFOState       `json:"queue"`
	Draining  []int           `json:"draining,omitempty"`
}

func (st *rankedState) codec(c *statecodec.Codec) {
	c.Float("last", &st.Last)
	c.Float("v", &st.V)
	c.Float("maxFinish", &st.MaxFinish)
	c.Bool("busy", &st.Busy)
	statecodec.Slice(c, "flows", &st.Flows, (*rankFlowState).codec)
	statecodec.Ptr(c, "gps", &st.GPS, (*GPSState).codec)
	statecodec.Struct(c, "queue", &st.Queue, (*PIFOState).codec)
	c.IntsOmit("draining", &st.Draining)
}

// StateKind identifies the state by discipline — ranks from one rank
// function mean nothing to another, and SFQ's tie rule shapes the queued
// sub keys, so each rule is a kind of its own. A registry name and its
// aliases share the kind.
func (s *Ranked) StateKind() string { return "rank/" + s.d.Name }

// AppendState serializes the scheduler: flow registrations with their
// tag chains, the PIFO backlog, the discipline virtual time, and the
// fluid GPS reference when one is attached.
func (s *Ranked) AppendState(b []byte) ([]byte, error) {
	st := s.captureState()
	return statecodec.Encode(b, &st, (*rankedState).codec)
}

// captureState copies the scheduler's state into its serializable form.
func (s *Ranked) captureState() rankedState {
	st := rankedState{
		Last: s.last, V: s.st.V, MaxFinish: s.st.maxFinish, Busy: s.st.busy,
		Queue:    s.q.CaptureState(),
		Draining: s.q.fs.Draining(),
	}
	st.Flows = make([]rankFlowState, 0, s.q.fs.index.n)
	for _, fi := range s.q.fs.ListFlows() {
		r := rankFlowState{ID: fi.Flow, Weight: fi.Weight}
		if f := s.q.fs.Get(fi.Flow); f != nil {
			r.LastFinish, r.EAT, r.Deadline, r.Cum = f.LastFinish, f.EAT, f.Deadline, f.Cum
		}
		st.Flows = append(st.Flows, r)
	}
	if s.st.gps != nil {
		gps := s.st.gps.captureState()
		st.GPS = &gps
	}
	return st
}

// RestoreState loads state into a freshly constructed scheduler running
// the same discipline (liveops.Restore holds the envelope's kind against
// StateKind first). Tag chains are restored verbatim — OnAddFlow is NOT
// re-fired, the serialized defaults already reflect it.
func (s *Ranked) RestoreState(data []byte) error {
	if s.q.fs.index.n != 0 || s.q.Len() != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", ErrBadState)
	}
	var st rankedState
	if err := decodeState(data, &st, (*rankedState).codec); err != nil {
		return err
	}
	if (st.GPS != nil) != (s.st.gps != nil) {
		return fmt.Errorf("%w: GPS state presence does not match discipline", ErrBadState)
	}
	err := restoreFlows(&s.q.fs.FlowTable, st.Flows, (*rankFlowState).key, func(f *rankFlowState) error {
		if f.Deadline < 0 {
			return fmt.Errorf("%w: flow %d negative delay bound", ErrBadState, f.ID)
		}
		return nil
	}, func(f *rankFlowState) {
		r := s.q.fs.Record(f.ID)
		r.LastFinish, r.EAT, r.Deadline, r.Cum = f.LastFinish, f.EAT, f.Deadline, f.Cum
	})
	if err != nil {
		return err
	}
	if st.GPS != nil {
		if err := s.st.gps.restoreState(*st.GPS); err != nil {
			return err
		}
	}
	if err := s.q.RestoreState(st.Queue); err != nil {
		return err
	}
	known := func(f int) bool { return s.q.fs.Weight(f) != 0 }
	if err := s.q.fs.draining.Restore(st.Draining, known); err != nil {
		return err
	}
	s.last, s.st.V, s.st.maxFinish, s.st.busy = st.Last, st.V, st.MaxFinish, st.Busy
	return nil
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
func (s *Ranked) VisitQueued(fn func(*Packet)) { s.q.VisitQueued(fn) }
