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

var flowRankKeys = []string{"flow", "key", "sub"}

func (fr *FlowRankState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("flow").Int(fr.Flow)
	w.Key("key").Float(fr.Key)
	if fr.Sub != 0 {
		w.Key("sub").Float(fr.Sub)
	}
	w.EndObject()
}

func (fr *FlowRankState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(flowRankKeys); o.Next(); {
		switch o.Key() {
		case "flow":
			fr.Flow = r.Int()
		case "key":
			fr.Key = r.Float()
		case "sub":
			fr.Sub = r.Float()
		}
	}
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

var pifoKeys = []string{"queue", "last", "clamped"}

func (st *PIFOState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("queue")
	st.Queue.appendJSON(w)
	if len(st.Last) != 0 {
		w.Key("last")
		statecodec.AppendSlice(w, st.Last, (*FlowRankState).appendJSON)
	}
	if st.Clamped != 0 {
		w.Key("clamped").Uint(st.Clamped)
	}
	w.EndObject()
}

func (st *PIFOState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(pifoKeys); o.Next(); {
		switch o.Key() {
		case "queue":
			st.Queue.decodeJSON(r)
		case "last":
			statecodec.Slice(r, &st.Last, (*FlowRankState).decodeJSON)
		case "clamped":
			st.Clamped = r.Uint()
		}
	}
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
		s.d.OnAddFlow(&s.st, s.q.fs.Registered(flow))
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

var rankFlowKeys = []string{"id", "weight", "lastFinish", "eat", "deadline", "cum"}

func (f *rankFlowState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("id").Int(f.ID)
	w.Key("weight").Float(f.Weight)
	if f.LastFinish != 0 {
		w.Key("lastFinish").Float(f.LastFinish)
	}
	if f.EAT != 0 {
		w.Key("eat").Float(f.EAT)
	}
	if f.Deadline != 0 {
		w.Key("deadline").Float(f.Deadline)
	}
	if f.Cum != 0 {
		w.Key("cum").Float(f.Cum)
	}
	w.EndObject()
}

func (f *rankFlowState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(rankFlowKeys); o.Next(); {
		switch o.Key() {
		case "id":
			f.ID = r.Int()
		case "weight":
			f.Weight = r.Float()
		case "lastFinish":
			f.LastFinish = r.Float()
		case "eat":
			f.EAT = r.Float()
		case "deadline":
			f.Deadline = r.Float()
		case "cum":
			f.Cum = r.Float()
		}
	}
}

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

var rankedKeys = []string{"last", "v", "maxFinish", "busy", "flows", "gps", "queue", "draining"}

func (st *rankedState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("last").Float(st.Last)
	w.Key("v").Float(st.V)
	w.Key("maxFinish").Float(st.MaxFinish)
	w.Key("busy").Bool(st.Busy)
	w.Key("flows")
	statecodec.AppendSlice(w, st.Flows, (*rankFlowState).appendJSON)
	if st.GPS != nil {
		w.Key("gps")
		st.GPS.appendJSON(w)
	}
	w.Key("queue")
	st.Queue.appendJSON(w)
	if len(st.Draining) != 0 {
		w.Key("draining")
		statecodec.AppendInts(w, st.Draining)
	}
	w.EndObject()
}

func (st *rankedState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(rankedKeys); o.Next(); {
		switch o.Key() {
		case "last":
			st.Last = r.Float()
		case "v":
			st.V = r.Float()
		case "maxFinish":
			st.MaxFinish = r.Float()
		case "busy":
			st.Busy = r.Bool()
		case "flows":
			statecodec.Slice(r, &st.Flows, (*rankFlowState).decodeJSON)
		case "gps":
			st.GPS = new(GPSState)
			st.GPS.decodeJSON(r)
		case "queue":
			st.Queue.decodeJSON(r)
		case "draining":
			statecodec.Ints(r, &st.Draining)
		}
	}
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
	return appendState(b, st.appendJSON)
}

// captureState copies the scheduler's state into its serializable form.
func (s *Ranked) captureState() rankedState {
	st := rankedState{
		Last: s.last, V: s.st.V, MaxFinish: s.st.maxFinish, Busy: s.st.busy,
		Queue:    s.q.CaptureState(),
		Draining: s.q.fs.Draining(),
	}
	st.Flows = make([]rankFlowState, 0, len(s.q.fs.Weights))
	s.q.fs.Each(func(f *Flow) {
		st.Flows = append(st.Flows, rankFlowState{
			ID: f.flow, Weight: f.Weight,
			LastFinish: f.LastFinish, EAT: f.EAT, Deadline: f.Deadline, Cum: f.Cum,
		})
	})
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
	if len(s.q.fs.Weights) != 0 || s.q.Len() != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", ErrBadState)
	}
	var st rankedState
	if err := decodeState(data, st.decodeJSON); err != nil {
		return err
	}
	if (st.GPS != nil) != (s.st.gps != nil) {
		return fmt.Errorf("%w: GPS state presence does not match discipline", ErrBadState)
	}
	for i, f := range st.Flows {
		if i > 0 && f.ID <= st.Flows[i-1].ID {
			return fmt.Errorf("%w: flow ids not ascending at %d", ErrBadState, f.ID)
		}
		if f.Weight <= 0 {
			return fmt.Errorf("%w: flow %d weight %v", ErrBadState, f.ID, f.Weight)
		}
		if f.Deadline < 0 {
			return fmt.Errorf("%w: flow %d negative delay bound", ErrBadState, f.ID)
		}
	}
	for _, f := range st.Flows {
		_ = s.q.fs.Add(f.ID, f.Weight) // cannot fail: weight validated above, nothing draining yet
		r := s.q.fs.Registered(f.ID)
		r.LastFinish, r.EAT, r.Deadline, r.Cum = f.LastFinish, f.EAT, f.Deadline, f.Cum
	}
	if st.GPS != nil {
		if err := s.st.gps.restoreState(*st.GPS); err != nil {
			return err
		}
	}
	if err := s.q.RestoreState(st.Queue); err != nil {
		return err
	}
	for _, f := range st.Queue.Queue.Flows {
		if _, ok := s.q.fs.Weights[f.Flow]; !ok {
			return fmt.Errorf("%w: queued packets for unregistered flow %d", ErrBadState, f.Flow)
		}
	}
	if err := s.q.fs.RestoreDraining(st.Draining); err != nil {
		return err
	}
	s.last, s.st.V, s.st.maxFinish, s.st.busy = st.Last, st.V, st.MaxFinish, st.Busy
	return nil
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
func (s *Ranked) VisitQueued(fn func(*Packet)) { s.q.VisitQueued(fn) }
