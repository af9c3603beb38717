package pifo

import (
	"encoding/json"
	"fmt"

	"repro/internal/sched"
)

// This file implements sched.Reconfigurable (live mutation) and
// sched.Snapshotter (deterministic serialization) for the PIFO adapter,
// covering every rank-function discipline at once. See
// internal/sched/snapshot.go for the determinism contract.

// FlowRankState is one backlogged flow's clamp-chain entry (the rank its
// most recent push actually used).
type FlowRankState struct {
	Flow int     `json:"flow"`
	Key  float64 `json:"key"`
	Sub  float64 `json:"sub,omitempty"`
}

// QueueState is the serializable form of a Queue: the flow-indexed
// backlog, the per-flow clamp chains of the backlogged flows (a drained
// flow's chain is dead — the next push starts fresh — so only backlogged
// chains are schedule state), and the clamp counter.
type QueueState struct {
	Queue   sched.FlowSetState `json:"queue"`
	Last    []FlowRankState    `json:"last,omitempty"`
	Clamped uint64             `json:"clamped,omitempty"`
}

// CaptureState serializes the queue in canonical form.
func (q *Queue) CaptureState() QueueState {
	st := QueueState{Queue: q.fs.CaptureState(), Clamped: q.clamped}
	st.Last = make([]FlowRankState, 0, len(st.Queue.Flows))
	for _, f := range st.Queue.Flows {
		r := q.fs.Get(f.Flow)
		st.Last = append(st.Last, FlowRankState{Flow: f.Flow, Key: r.LastKey, Sub: r.LastSub})
	}
	return st
}

// RestoreState loads st into an empty Queue. The clamp chains must cover
// exactly the backlogged flows, and — except for a single-packet flow
// whose head rank may have been rewritten through SetFlowRank — a flow's
// chain entry must equal its FIFO tail rank (the rank of its most recent
// push, which per-flow monotonicity pins to the tail).
func (q *Queue) RestoreState(st QueueState) error {
	if q.Len() != 0 {
		return fmt.Errorf("%w: restore into non-empty PIFO", sched.ErrBadState)
	}
	if err := q.fs.RestoreState(st.Queue); err != nil {
		return err
	}
	if len(st.Last) != len(st.Queue.Flows) {
		return fmt.Errorf("%w: %d clamp chains for %d backlogged flows", sched.ErrBadState, len(st.Last), len(st.Queue.Flows))
	}
	for i, lr := range st.Last {
		f := st.Queue.Flows[i]
		if lr.Flow != f.Flow {
			return fmt.Errorf("%w: clamp chain %d is for flow %d, backlog has %d", sched.ErrBadState, i, lr.Flow, f.Flow)
		}
		if tail := f.Items[len(f.Items)-1]; len(f.Items) > 1 && (lr.Key != tail.Key || lr.Sub != tail.Sub) {
			return fmt.Errorf("%w: flow %d clamp chain (%v, %v) != tail rank (%v, %v)", sched.ErrBadState, lr.Flow, lr.Key, lr.Sub, tail.Key, tail.Sub)
		}
		r := q.fs.Get(lr.Flow)
		r.LastKey, r.LastSub = lr.Key, lr.Sub
	}
	q.clamped = st.Clamped
	return nil
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
func (q *Queue) VisitQueued(fn func(*sched.Packet)) { q.fs.VisitQueued(fn) }

// ---------------------------------------------------------------- Sched --

// SetWeight changes flow's weight for packets arriving after the call
// (sched.FlowSet.SetWeight, which also adjusts the fluid GPS share sum when
// one is attached) and re-derives the discipline's per-flow defaults
// (OnAddFlow — LSTF's default slack tracks 1/weight) exactly as a
// re-registering AddFlow would.
func (s *Sched) SetWeight(flow int, weight float64) error {
	if err := s.q.fs.SetWeight(flow, weight); err != nil {
		return err
	}
	if s.d.OnAddFlow != nil {
		s.d.OnAddFlow(&s.st, s.q.fs.Registered(flow))
	}
	return nil
}

// SetCapacity changes the fluid GPS capacity for GPS-backed disciplines
// (WFQ); the self-clocked rank functions have no capacity assumption.
func (s *Sched) SetCapacity(c float64) error {
	if s.st.GPS == nil {
		return sched.ErrNoCapacityKnob
	}
	return s.st.GPS.SetCapacity(c)
}

// DrainFlow removes flow gracefully: the removal completes when the flow
// is idle in the PIFO and, for GPS-backed disciplines, in the fluid
// system too (see sched.Reconfigurable).
func (s *Sched) DrainFlow(flow int) error { return s.q.fs.DrainFlow(flow) }

// ListFlows returns the registered flows sorted by id.
func (s *Sched) ListFlows() []sched.FlowInfo { return s.q.fs.ListFlows() }

// pifoFlowState is one flow's registration plus its discipline tag chains.
type pifoFlowState struct {
	ID         int     `json:"id"`
	Weight     float64 `json:"weight"`
	LastFinish float64 `json:"lastFinish,omitempty"`
	EAT        float64 `json:"eat,omitempty"`
	Deadline   float64 `json:"deadline,omitempty"`
	Cum        float64 `json:"cum,omitempty"`
}

type pifoState struct {
	Last      float64         `json:"last"`
	V         float64         `json:"v"`
	MaxFinish float64         `json:"maxFinish"`
	Busy      bool            `json:"busy"`
	Flows     []pifoFlowState `json:"flows"`
	GPS       *sched.GPSState `json:"gps,omitempty"`
	Queue     QueueState      `json:"queue"`
	Draining  []int           `json:"draining,omitempty"`
}

// StateKind identifies the adapter's state by discipline — ranks from one
// rank function mean nothing to another.
func (s *Sched) StateKind() string { return "pifo/" + s.d.Name }

// MarshalState serializes the adapter state: flow registrations with
// their tag chains, the PIFO backlog, the discipline virtual time, and
// the fluid GPS reference when one is attached.
func (s *Sched) MarshalState() ([]byte, error) {
	st := pifoState{
		Last: s.last, V: s.st.V, MaxFinish: s.st.maxFinish, Busy: s.st.busy,
		Queue:    s.q.CaptureState(),
		Draining: s.q.fs.Draining(),
	}
	st.Flows = make([]pifoFlowState, 0, len(s.q.fs.Weights))
	s.q.fs.Each(func(f *Flow) {
		st.Flows = append(st.Flows, pifoFlowState{
			ID: f.ID(), Weight: f.Weight,
			LastFinish: f.LastFinish, EAT: f.EAT, Deadline: f.Deadline, Cum: f.Cum,
		})
	})
	if s.st.GPS != nil {
		gps := s.st.GPS.CaptureState()
		st.GPS = &gps
	}
	return json.Marshal(st)
}

// RestoreState loads state into a freshly constructed adapter running the
// same discipline. Tag chains are restored verbatim — OnAddFlow is NOT
// re-fired, the serialized defaults already reflect it.
func (s *Sched) RestoreState(data []byte) error {
	if len(s.q.fs.Weights) != 0 || s.q.Len() != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", sched.ErrBadState)
	}
	var st pifoState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: %v", sched.ErrBadState, err)
	}
	if (st.GPS != nil) != (s.st.GPS != nil) {
		return fmt.Errorf("%w: GPS state presence does not match discipline", sched.ErrBadState)
	}
	for i, f := range st.Flows {
		if i > 0 && f.ID <= st.Flows[i-1].ID {
			return fmt.Errorf("%w: flow ids not ascending at %d", sched.ErrBadState, f.ID)
		}
		if f.Weight <= 0 {
			return fmt.Errorf("%w: flow %d weight %v", sched.ErrBadState, f.ID, f.Weight)
		}
	}
	for _, f := range st.Flows {
		_ = s.q.fs.Add(f.ID, f.Weight) // cannot fail: weight validated above, nothing draining yet
		r := s.q.fs.Registered(f.ID)
		r.LastFinish, r.EAT, r.Deadline, r.Cum = f.LastFinish, f.EAT, f.Deadline, f.Cum
	}
	if st.GPS != nil {
		if err := s.st.GPS.RestoreState(*st.GPS); err != nil {
			return err
		}
	}
	if err := s.q.RestoreState(st.Queue); err != nil {
		return err
	}
	for _, f := range st.Queue.Queue.Flows {
		if _, ok := s.q.fs.Weights[f.Flow]; !ok {
			return fmt.Errorf("%w: queued packets for unregistered flow %d", sched.ErrBadState, f.Flow)
		}
	}
	if err := s.q.fs.RestoreDraining(st.Draining); err != nil {
		return err
	}
	s.last, s.st.V, s.st.maxFinish, s.st.busy = st.Last, st.V, st.MaxFinish, st.Busy
	return nil
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
func (s *Sched) VisitQueued(fn func(*sched.Packet)) { s.q.VisitQueued(fn) }
