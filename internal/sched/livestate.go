package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// This file implements Reconfigurable (live mutation) and Snapshotter
// (deterministic serialization) for the disciplines that are not rank
// functions — DRR, Priority, Fair Airport. The rank family's one
// implementation is ranklive.go; both build on the state types in
// snapshot.go.

// RestoreDraining loads a snapshot's draining list, which must be
// ascending and name registered flows only.
func (t *FlowTable) RestoreDraining(draining []int) error {
	for i, f := range draining {
		if i > 0 && f <= draining[i-1] {
			return fmt.Errorf("%w: draining flows not ascending at %d", ErrBadState, f)
		}
		if _, ok := t.Weights[f]; !ok {
			return fmt.Errorf("%w: draining flow %d not registered", ErrBadState, f)
		}
	}
	t.draining.SetFlows(draining)
	return nil
}

// ------------------------------------------------------------------ DRR --

type drrFlowState struct {
	Flow    int           `json:"flow"`
	Deficit float64       `json:"deficit"`
	Fresh   bool          `json:"fresh,omitempty"`
	Pkts    []PacketState `json:"pkts"`
}

type drrState struct {
	Last    float64          `json:"last"`
	Quantum float64          `json:"quantum"`
	Flows   []FlowAccounting `json:"flows"`
	// Active is the round-robin list in service order — schedule state,
	// so it is serialized as a sequence, not re-sorted.
	Active []drrFlowState `json:"active"`
}

// StateKind identifies DRR snapshot state.
func (s *DRR) StateKind() string { return "sched/drr" }

// MarshalState serializes the full DRR scheduling state. The round-robin
// list order IS the schedule, so Active keeps service order.
func (s *DRR) MarshalState() ([]byte, error) {
	st := drrState{Last: s.last, Quantum: s.quantum, Flows: s.flows.CaptureAccounting()}
	st.Active = make([]drrFlowState, s.active.n)
	s.active.each(func(i int, a *drrSlot) {
		fs := drrFlowState{Flow: a.f.flow, Deficit: a.deficit, Fresh: a.fresh}
		fs.Pkts = make([]PacketState, 0, a.f.n)
		a.f.VisitQueued(func(p *Packet) { fs.Pkts = append(fs.Pkts, CapturePacket(p)) })
		st.Active[i] = fs
	})
	return json.Marshal(st)
}

// RestoreState loads state into a freshly constructed DRR with the same
// quantum.
func (s *DRR) RestoreState(data []byte) error {
	if len(s.flows.Weights) != 0 || s.total != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", ErrBadState)
	}
	var st drrState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if st.Quantum != s.quantum {
		return fmt.Errorf("%w: quantum %v does not match scheduler's %v", ErrBadState, st.Quantum, s.quantum)
	}
	if err := s.flows.RestoreAccounting(st.Flows); err != nil {
		return err
	}
	seen := make(map[int]bool, len(st.Active))
	total := 0
	for _, fs := range st.Active {
		f := s.flows.Registered(fs.Flow)
		if f == nil {
			return fmt.Errorf("%w: active flow %d not registered", ErrBadState, fs.Flow)
		}
		if seen[fs.Flow] {
			return fmt.Errorf("%w: flow %d twice in round-robin list", ErrBadState, fs.Flow)
		}
		seen[fs.Flow] = true
		if len(fs.Pkts) == 0 {
			return fmt.Errorf("%w: active flow %d with no packets", ErrBadState, fs.Flow)
		}
		if fs.Deficit < 0 {
			return fmt.Errorf("%w: flow %d negative deficit", ErrBadState, fs.Flow)
		}
		bytes := 0.0
		for i, ps := range fs.Pkts {
			if ps.Length <= 0 || ps.Flow != fs.Flow {
				return fmt.Errorf("%w: flow %d packet %d invalid", ErrBadState, fs.Flow, i)
			}
			bytes += ps.Length
		}
		if f.n != len(fs.Pkts) || !closeTo(f.bytes, bytes) {
			return fmt.Errorf("%w: flow %d accounting disagrees with queue", ErrBadState, fs.Flow)
		}
		// RestoreAccounting set the record's counters; refill its FIFO from
		// the packets and keep the recorded byte accumulator exactly.
		acct := f.bytes
		f.n, f.bytes = 0, 0
		for _, ps := range fs.Pkts {
			f.Push(&s.pool, 0, 0, 0, ps.Packet())
		}
		f.bytes = acct
		s.active.push(drrSlot{f: f, deficit: fs.Deficit, fresh: fs.Fresh})
		total += len(fs.Pkts)
	}
	if n := s.flows.queuedTotal(); n != total {
		return fmt.Errorf("%w: accounting total %d != %d queued", ErrBadState, n, total)
	}
	s.total = total
	s.last = st.Last
	return nil
}

// VisitQueued visits queued packets in round-robin list order (DRR's
// canonical order), FIFO within a flow.
func (s *DRR) VisitQueued(fn func(*Packet)) {
	s.active.each(func(_ int, a *drrSlot) { a.f.VisitQueued(fn) })
}

// ListFlows returns the registered flows sorted by id.
func (s *DRR) ListFlows() []FlowInfo { return s.flows.ListFlows() }

// ------------------------------------------------------------- Priority --

type priorityClassState struct {
	Flow  int `json:"flow"`
	Level int `json:"level"`
}

type priorityState struct {
	Last   float64              `json:"last"`
	Class  []priorityClassState `json:"class"`
	Levels []json.RawMessage    `json:"levels"`
}

// StateKind identifies a priority composition by its children's kinds.
func (s *Priority) StateKind() string {
	kinds := make([]string, len(s.levels))
	for i, lvl := range s.levels {
		if snap, ok := lvl.(Snapshotter); ok {
			kinds[i] = snap.StateKind()
		} else {
			kinds[i] = "?"
		}
	}
	out := "sched/priority("
	for i, k := range kinds {
		if i > 0 {
			out += ","
		}
		out += k
	}
	return out + ")"
}

// MarshalState serializes the composition: the flow→level map plus each
// child's own state. Every child must itself be a Snapshotter.
func (s *Priority) MarshalState() ([]byte, error) {
	st := priorityState{Last: s.last}
	st.Class = make([]priorityClassState, 0, len(s.class))
	for f, lvl := range s.class {
		st.Class = append(st.Class, priorityClassState{Flow: f, Level: lvl})
	}
	sort.Slice(st.Class, func(i, j int) bool { return st.Class[i].Flow < st.Class[j].Flow })
	st.Levels = make([]json.RawMessage, len(s.levels))
	for i, lvl := range s.levels {
		snap, ok := lvl.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("sched: priority level %d (%T) does not support snapshots", i, lvl)
		}
		data, err := snap.MarshalState()
		if err != nil {
			return nil, err
		}
		st.Levels[i] = data
	}
	return json.Marshal(st)
}

// RestoreState loads state into a freshly constructed composition with
// the same level structure.
func (s *Priority) RestoreState(data []byte) error {
	if len(s.class) != 0 || s.Len() != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", ErrBadState)
	}
	var st priorityState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if len(st.Levels) != len(s.levels) {
		return fmt.Errorf("%w: %d levels in state, scheduler has %d", ErrBadState, len(st.Levels), len(s.levels))
	}
	for i, lvl := range s.levels {
		snap, ok := lvl.(Snapshotter)
		if !ok {
			return fmt.Errorf("%w: priority level %d (%T) does not support snapshots", ErrBadState, i, lvl)
		}
		if err := snap.RestoreState(st.Levels[i]); err != nil {
			return err
		}
	}
	for i, c := range st.Class {
		if i > 0 && c.Flow <= st.Class[i-1].Flow {
			return fmt.Errorf("%w: class flow ids not ascending at %d", ErrBadState, c.Flow)
		}
		if c.Level < 0 || c.Level >= len(s.levels) {
			return fmt.Errorf("%w: flow %d level %d out of range", ErrBadState, c.Flow, c.Level)
		}
		s.class[c.Flow] = c.Level
	}
	// Cross-check the flow→level map against each child's own registry
	// when the child can enumerate it.
	for i, lvl := range s.levels {
		fl, ok := lvl.(FlowLister)
		if !ok {
			continue
		}
		for _, info := range fl.ListFlows() {
			if got, ok := s.class[info.Flow]; !ok || got != i {
				return fmt.Errorf("%w: level %d flow %d missing from class map", ErrBadState, i, info.Flow)
			}
		}
	}
	s.last = st.Last
	return nil
}

// VisitQueued visits each level's queued packets in priority order.
func (s *Priority) VisitQueued(fn func(*Packet)) {
	for _, lvl := range s.levels {
		if snap, ok := lvl.(Snapshotter); ok {
			snap.VisitQueued(fn)
		}
	}
}

// ---------------------------------------------------------- FairAirport --

type faEntryState struct {
	Served   bool         `json:"served,omitempty"`
	InGSQ    bool         `json:"inGSQ,omitempty"`
	Eat      float64      `json:"eat,omitempty"`
	AsqStart float64      `json:"asqStart,omitempty"`
	AsqF     float64      `json:"asqF,omitempty"`
	Pkt      *PacketState `json:"pkt,omitempty"`
}

type faFlowState struct {
	Flow    int `json:"flow"`
	HeadIdx int `json:"headIdx"`
	RegIdx  int `json:"regIdx"`
	Gen     int `json:"gen"`
	// GsqBaseLo marks gsqBase == -Inf (the initial "no GSQ history"
	// state), which JSON cannot encode as a number.
	GsqBaseLo bool           `json:"gsqBaseLo,omitempty"`
	GsqBase   float64        `json:"gsqBase,omitempty"`
	AsqBase   float64        `json:"asqBase,omitempty"`
	AsqKey    float64        `json:"asqKey,omitempty"`
	AsqSerial uint64         `json:"asqSerial,omitempty"`
	InASQ     bool           `json:"inASQ,omitempty"`
	Entries   []faEntryState `json:"entries,omitempty"`
}

type faGSQItemState struct {
	Key    float64 `json:"key"`
	Serial uint64  `json:"serial"`
	Flow   int     `json:"flow"`
	Idx    int     `json:"idx"`
}

type faRegEventState struct {
	Eat  float64 `json:"eat"`
	Seq  uint64  `json:"seq"`
	Flow int     `json:"flow"`
	Idx  int     `json:"idx"`
	Gen  int     `json:"gen"`
}

type faState struct {
	Last         float64           `json:"last"`
	AsqSeq       uint64            `json:"asqSeq"`
	AsqV         float64           `json:"asqV"`
	AsqMaxFinish float64           `json:"asqMaxFinish"`
	Busy         bool              `json:"busy"`
	Total        int               `json:"total"`
	GSQSerial    uint64            `json:"gsqSerial"`
	RegSeq       uint64            `json:"regSeq"`
	Flows        []FlowAccounting  `json:"flows"`
	State        []faFlowState     `json:"state"`
	GSQ          []faGSQItemState  `json:"gsq"`
	Reg          []faRegEventState `json:"reg"`
}

// StateKind identifies Fair Airport snapshot state.
func (s *FairAirport) StateKind() string { return "sched/fairairport" }

// MarshalState serializes the full Fair Airport state: per-flow entry
// slices (served entries as normalized tombstones, so index-based
// regulator events keep their meaning), the GSQ as (flow, index)
// references into those slices, and the regulator event heap sorted by
// its (eat, seq) strict total order.
func (s *FairAirport) MarshalState() ([]byte, error) {
	st := faState{
		Last: s.last, AsqSeq: s.asqSeq, AsqV: s.asqV, AsqMaxFinish: s.asqMaxFinish,
		Busy: s.busy, Total: s.total, GSQSerial: s.gsq.serial, RegSeq: s.reg.seq,
		Flows: s.flows.CaptureAccounting(),
	}
	ids := make([]int, 0, len(s.state))
	for f := range s.state {
		ids = append(ids, f)
	}
	sort.Ints(ids)
	// gsqRef locates each live packet so GSQ items can be serialized as
	// references rather than duplicating packets.
	type ref struct{ flow, idx int }
	gsqRef := make(map[*Packet]ref)
	st.State = make([]faFlowState, 0, len(ids))
	for _, id := range ids {
		f := s.state[id]
		fs := faFlowState{
			Flow: id, HeadIdx: f.headIdx, RegIdx: f.regIdx, Gen: f.gen,
			AsqBase: f.asqBase, AsqKey: f.asqKey, AsqSerial: f.asqSerial,
			InASQ: f.asqIdx >= 0,
		}
		if math.IsInf(f.gsqBase, -1) {
			fs.GsqBaseLo = true
		} else {
			fs.GsqBase = f.gsqBase
		}
		if len(f.q) > 0 {
			fs.Entries = make([]faEntryState, len(f.q))
			for i := range f.q {
				e := &f.q[i]
				if e.served {
					fs.Entries[i] = faEntryState{Served: true}
					continue
				}
				ps := CapturePacket(e.p)
				fs.Entries[i] = faEntryState{
					InGSQ: e.inGSQ, Eat: e.eat,
					AsqStart: e.asqStart, AsqF: e.asqF, Pkt: &ps,
				}
				gsqRef[e.p] = ref{flow: id, idx: i}
			}
		}
		st.State = append(st.State, fs)
	}
	st.GSQ = make([]faGSQItemState, 0, len(s.gsq.items))
	for _, it := range s.gsq.items {
		r, ok := gsqRef[it.p]
		if !ok {
			return nil, fmt.Errorf("sched: fairairport GSQ holds a packet with no live entry")
		}
		st.GSQ = append(st.GSQ, faGSQItemState{Key: it.key, Serial: it.serial, Flow: r.flow, Idx: r.idx})
	}
	sort.Slice(st.GSQ, func(i, j int) bool {
		a, b := st.GSQ[i], st.GSQ[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Serial < b.Serial
	})
	st.Reg = make([]faRegEventState, 0, len(s.reg.es))
	for _, e := range s.reg.es {
		st.Reg = append(st.Reg, faRegEventState{Eat: e.eat, Seq: e.seq, Flow: e.flow, Idx: e.idx, Gen: e.gen})
	}
	sort.Slice(st.Reg, func(i, j int) bool {
		a, b := st.Reg[i], st.Reg[j]
		if a.Eat != b.Eat {
			return a.Eat < b.Eat
		}
		return a.Seq < b.Seq
	})
	return json.Marshal(st)
}

// RestoreState loads state into a freshly constructed Fair Airport.
func (s *FairAirport) RestoreState(data []byte) error {
	if len(s.flows.Weights) != 0 || s.total != 0 || len(s.state) != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", ErrBadState)
	}
	var st faState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if err := s.flows.RestoreAccounting(st.Flows); err != nil {
		return err
	}
	total := 0
	inGSQ := 0
	var maxAsqSerial uint64
	for i, fs := range st.State {
		if i > 0 && fs.Flow <= st.State[i-1].Flow {
			return fmt.Errorf("%w: fa flow ids not ascending at %d", ErrBadState, fs.Flow)
		}
		if _, ok := s.flows.Weights[fs.Flow]; !ok {
			return fmt.Errorf("%w: fa state for unregistered flow %d", ErrBadState, fs.Flow)
		}
		n := len(fs.Entries)
		if fs.HeadIdx < 0 || fs.HeadIdx > n || fs.RegIdx < 0 || fs.RegIdx > n {
			return fmt.Errorf("%w: fa flow %d indices out of range", ErrBadState, fs.Flow)
		}
		if fs.InASQ != (fs.HeadIdx < n) {
			return fmt.Errorf("%w: fa flow %d ASQ membership disagrees with backlog", ErrBadState, fs.Flow)
		}
		live := 0
		bytes := 0.0
		for j, e := range fs.Entries {
			if j < fs.HeadIdx {
				if !e.Served || e.Pkt != nil {
					return fmt.Errorf("%w: fa flow %d entry %d below head not a served tombstone", ErrBadState, fs.Flow, j)
				}
				continue
			}
			if e.Served || e.Pkt == nil {
				return fmt.Errorf("%w: fa flow %d entry %d above head served or packetless", ErrBadState, fs.Flow, j)
			}
			if e.Pkt.Length <= 0 || e.Pkt.Flow != fs.Flow {
				return fmt.Errorf("%w: fa flow %d entry %d packet invalid", ErrBadState, fs.Flow, j)
			}
			if e.InGSQ {
				inGSQ++
			}
			live++
			bytes += e.Pkt.Length
		}
		if s.flows.QueuedCount(fs.Flow) != live || !closeTo(s.flows.QueuedBytes(fs.Flow), bytes) {
			return fmt.Errorf("%w: fa flow %d accounting disagrees with entries", ErrBadState, fs.Flow)
		}
		if fs.InASQ {
			head := fs.Entries[fs.HeadIdx]
			if head.AsqStart != fs.AsqKey {
				return fmt.Errorf("%w: fa flow %d ASQ key %v != head start %v", ErrBadState, fs.Flow, fs.AsqKey, head.AsqStart)
			}
			if fs.AsqSerial > maxAsqSerial {
				maxAsqSerial = fs.AsqSerial
			}
		}
		total += live
	}
	if total != st.Total {
		return fmt.Errorf("%w: fa total %d != %d live entries", ErrBadState, st.Total, total)
	}
	if len(st.State) != len(s.flows.Weights) {
		return fmt.Errorf("%w: fa has %d flow states for %d registered flows", ErrBadState, len(st.State), len(s.flows.Weights))
	}
	if st.AsqSeq < maxAsqSerial {
		return fmt.Errorf("%w: fa ASQ seq %d below max serial %d", ErrBadState, st.AsqSeq, maxAsqSerial)
	}
	if len(st.GSQ) != inGSQ {
		return fmt.Errorf("%w: fa GSQ has %d items for %d promoted entries", ErrBadState, len(st.GSQ), inGSQ)
	}

	// All validated: materialize.
	flowStates := make(map[int]*faFlow, len(st.State))
	for _, fs := range st.State {
		f := &faFlow{
			headIdx: fs.HeadIdx, regIdx: fs.RegIdx, gen: fs.Gen,
			asqBase: fs.AsqBase, asqKey: fs.AsqKey, asqSerial: fs.AsqSerial,
			asqIdx:  -1,
			gsqBase: fs.GsqBase,
		}
		if fs.GsqBaseLo {
			f.gsqBase = math.Inf(-1)
		}
		if len(fs.Entries) > 0 {
			f.q = make([]faEntry, len(fs.Entries))
			for j, e := range fs.Entries {
				if e.Served {
					f.q[j] = faEntry{served: true}
					continue
				}
				f.q[j] = faEntry{
					p: e.Pkt.Packet(), eat: e.Eat, inGSQ: e.InGSQ,
					asqStart: e.AsqStart, asqF: e.AsqF,
				}
			}
		}
		flowStates[fs.Flow] = f
		s.state[fs.Flow] = f
	}
	// ASQ heap: push backlogged flows in (key, serial) order; the sorted
	// push sequence yields a valid heap and pop order is total anyway.
	asqFlows := make([]faFlowState, 0, len(st.State))
	for _, fs := range st.State {
		if fs.InASQ {
			asqFlows = append(asqFlows, fs)
		}
	}
	sort.Slice(asqFlows, func(i, j int) bool {
		a, b := asqFlows[i], asqFlows[j]
		if a.AsqKey != b.AsqKey {
			return a.AsqKey < b.AsqKey
		}
		return a.AsqSerial < b.AsqSerial
	})
	for _, fs := range asqFlows {
		s.asq.push(flowStates[fs.Flow])
	}
	// GSQ: items sorted by (key, serial) form a valid heap directly.
	var maxGSQSerial uint64
	s.gsq.items = make([]tagItem, len(st.GSQ))
	for i, it := range st.GSQ {
		if i > 0 {
			prev := st.GSQ[i-1]
			if it.Key < prev.Key || (it.Key == prev.Key && it.Serial <= prev.Serial) {
				return fmt.Errorf("%w: fa GSQ not sorted at item %d", ErrBadState, i)
			}
		}
		f := flowStates[it.Flow]
		if f == nil || it.Idx < 0 || it.Idx >= len(f.q) || f.q[it.Idx].served || !f.q[it.Idx].inGSQ {
			return fmt.Errorf("%w: fa GSQ item %d references no promoted entry", ErrBadState, i)
		}
		s.gsq.items[i] = tagItem{key: it.Key, serial: it.Serial, p: f.q[it.Idx].p}
		if it.Serial > maxGSQSerial {
			maxGSQSerial = it.Serial
		}
	}
	if st.GSQSerial < maxGSQSerial {
		return fmt.Errorf("%w: fa GSQ serial %d below max item serial %d", ErrBadState, st.GSQSerial, maxGSQSerial)
	}
	s.gsq.serial = st.GSQSerial
	// Regulator: sorted events form a valid heap. Stale events (bumped
	// generation, out-of-range index) are legal — promote() drops them —
	// so only the heap order and the sequence counter are validated.
	var maxRegSeq uint64
	s.reg.es = make([]faRegEvent, len(st.Reg))
	for i, e := range st.Reg {
		if i > 0 {
			prev := st.Reg[i-1]
			if e.Eat < prev.Eat || (e.Eat == prev.Eat && e.Seq <= prev.Seq) {
				return fmt.Errorf("%w: fa regulator not sorted at event %d", ErrBadState, i)
			}
		}
		s.reg.es[i] = faRegEvent{eat: e.Eat, seq: e.Seq, flow: e.Flow, idx: e.Idx, gen: e.Gen}
		if e.Seq > maxRegSeq {
			maxRegSeq = e.Seq
		}
	}
	if st.RegSeq < maxRegSeq {
		return fmt.Errorf("%w: fa regulator seq %d below max event seq %d", ErrBadState, st.RegSeq, maxRegSeq)
	}
	s.reg.seq = st.RegSeq
	s.last, s.asqSeq, s.asqV, s.asqMaxFinish = st.Last, st.AsqSeq, st.AsqV, st.AsqMaxFinish
	s.busy, s.total = st.Busy, st.Total
	return nil
}

// VisitQueued visits live (unserved) packets: flows ascending, entry
// order within a flow. Promoted GSQ packets alias these entries, so each
// packet is visited exactly once.
func (s *FairAirport) VisitQueued(fn func(*Packet)) {
	ids := make([]int, 0, len(s.state))
	for f := range s.state {
		ids = append(ids, f)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f := s.state[id]
		for i := f.headIdx; i < len(f.q); i++ {
			fn(f.q[i].p)
		}
	}
}

// ListFlows returns the registered flows sorted by id.
func (s *FairAirport) ListFlows() []FlowInfo { return s.flows.ListFlows() }
