package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/sched"
)

// This file implements sched.Reconfigurable (live mutation) and
// sched.Snapshotter (deterministic serialization) for the paper's own
// flat SFQ discipline (hierarchical SFQ lives with the generic tree
// layer in internal/hier). See internal/sched/snapshot.go for the
// determinism contract every implementation here follows.

// ------------------------------------------------------------------ SFQ --

// SetWeight changes flow's weight for packets arriving after the call.
// Queued packets keep the tags they were stamped with — exactly the
// fluctuating-rate situation Theorem 1 covers, so fairness holds across
// the change without recomputing anything.
func (s *SFQ) SetWeight(flow int, weight float64) error { return s.flows.SetWeight(flow, weight) }

// SetCapacity reports that SFQ is self-clocked: no capacity assumption
// exists to change (the property Section 2 is built on).
func (s *SFQ) SetCapacity(float64) error { return sched.ErrNoCapacityKnob }

// DrainFlow removes flow gracefully: new arrivals are refused, queued
// packets are served normally, and the flow is unregistered once its
// backlog empties (see sched.Reconfigurable).
func (s *SFQ) DrainFlow(flow int) error { return s.flows.DrainFlow(flow) }

// ListFlows returns the registered flows sorted by id.
func (s *SFQ) ListFlows() []sched.FlowInfo { return s.flows.ListFlows() }

type sfqState struct {
	V          float64                `json:"v"`
	MaxFinish  float64                `json:"maxFinish"`
	Busy       bool                   `json:"busy"`
	Last       float64                `json:"last"`
	Tie        TieBreak               `json:"tie,omitempty"`
	Served     int64                  `json:"served"`
	Flows      []sched.FlowAccounting `json:"flows"`
	LastFinish []sched.FlowTagState   `json:"lastFinish"`
	Queue      sched.FlowSetState     `json:"queue"`
	Draining   []int                  `json:"draining,omitempty"`
}

// StateKind identifies SFQ snapshot state (FlowSFQ shares it: the types
// are schedule-identical).
func (s *SFQ) StateKind() string { return "core/sfq" }

// MarshalState serializes the full SFQ scheduling state.
func (s *SFQ) MarshalState() ([]byte, error) {
	return json.Marshal(sfqState{
		V: s.v, MaxFinish: s.maxFinish, Busy: s.busy, Last: s.last,
		Tie: s.tie, Served: s.served,
		Flows:      s.flows.CaptureAccounting(),
		LastFinish: s.flows.CaptureTags(sched.ChainFinish),
		Queue:      s.flows.CaptureState(),
		Draining:   s.flows.Draining(),
	})
}

// RestoreState loads state into a freshly constructed SFQ with the same
// tie-breaking rule (the rule shapes the queued sub keys, so states are
// not interchangeable across rules).
func (s *SFQ) RestoreState(data []byte) error {
	if len(s.flows.Weights) != 0 || s.flows.Len() != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", sched.ErrBadState)
	}
	var st sfqState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: %v", sched.ErrBadState, err)
	}
	if st.Tie != s.tie {
		return fmt.Errorf("%w: state tie rule %v does not match scheduler's %v", sched.ErrBadState, st.Tie, s.tie)
	}
	if err := s.flows.RestoreFlows(st.Flows, st.Queue, st.Draining); err != nil {
		return err
	}
	if err := s.flows.RestoreTags(sched.ChainFinish, st.LastFinish); err != nil {
		return err
	}
	s.v, s.maxFinish, s.busy, s.last = st.V, st.MaxFinish, st.Busy, st.Last
	s.served = st.Served
	return nil
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
func (s *SFQ) VisitQueued(fn func(*Packet)) { s.flows.VisitQueued(fn) }
