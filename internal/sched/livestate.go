package sched

import (
	"fmt"

	"repro/internal/statecodec"
)

// This file implements Reconfigurable (live mutation) and Snapshotter
// (deterministic serialization) for the disciplines that are not rank
// functions — DRR and Fair Airport. The rank family's one
// implementation is ranklive.go; both build on the state types in
// snapshot.go.

// ------------------------------------------------------------------ DRR --

type drrFlowState struct {
	Flow    int           `json:"flow"`
	Deficit float64       `json:"deficit"`
	Fresh   bool          `json:"fresh,omitempty"`
	Pkts    []PacketState `json:"pkts"`
}

func (fs *drrFlowState) codec(c *statecodec.Codec) {
	c.Int("flow", &fs.Flow)
	c.Float("deficit", &fs.Deficit)
	c.BoolOmit("fresh", &fs.Fresh)
	statecodec.Slice(c, "pkts", &fs.Pkts, (*PacketState).codec)
}

type drrState struct {
	Last    float64          `json:"last"`
	Quantum float64          `json:"quantum"`
	Flows   []FlowAccounting `json:"flows"`
	// Active is the round-robin list in service order — schedule state,
	// so it is serialized as a sequence, not re-sorted.
	Active []drrFlowState `json:"active"`
}

func (st *drrState) codec(c *statecodec.Codec) {
	c.Float("last", &st.Last)
	c.Float("quantum", &st.Quantum)
	statecodec.Slice(c, "flows", &st.Flows, (*FlowAccounting).codec)
	statecodec.Slice(c, "active", &st.Active, (*drrFlowState).codec)
}

// StateKind identifies DRR snapshot state.
func (s *DRR) StateKind() string { return "sched/drr" }

// AppendState serializes the full DRR scheduling state. The round-robin
// list order IS the schedule, so Active keeps service order.
func (s *DRR) AppendState(b []byte) ([]byte, error) {
	st := s.captureState()
	return statecodec.Encode(b, &st, (*drrState).codec)
}

// captureState copies the scheduler's state into its serializable form.
func (s *DRR) captureState() drrState {
	st := drrState{Last: s.last, Quantum: s.quantum, Flows: s.flows.CaptureAccounting()}
	st.Active = make([]drrFlowState, s.active.n)
	s.active.each(func(i int, a *drrSlot) {
		fs := drrFlowState{Flow: a.f.flow, Deficit: a.deficit, Fresh: a.fresh}
		fs.Pkts = make([]PacketState, 0, a.f.n)
		a.f.VisitQueued(func(p *Packet) { fs.Pkts = append(fs.Pkts, CapturePacket(p)) })
		st.Active[i] = fs
	})
	return st
}

// RestoreState loads state into a freshly constructed DRR with the same
// quantum.
func (s *DRR) RestoreState(data []byte) error {
	if s.flows.index.n != 0 || s.total != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", ErrBadState)
	}
	var st drrState
	if err := decodeState(data, &st, (*drrState).codec); err != nil {
		return err
	}
	if st.Quantum != s.quantum {
		return fmt.Errorf("%w: quantum %v does not match scheduler's %v", ErrBadState, st.Quantum, s.quantum)
	}
	if err := s.flows.restoreAccounting(st.Flows); err != nil {
		return err
	}
	seen := make(map[int]bool, len(st.Active))
	total := 0
	for _, fs := range st.Active {
		if s.flows.Weight(fs.Flow) == 0 {
			return fmt.Errorf("%w: active flow %d not registered", ErrBadState, fs.Flow)
		}
		f := s.flows.Record(fs.Flow)
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
		if int(f.n) != len(fs.Pkts) || !closeTo(f.bytes, bytes) {
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

// ---------------------------------------------------------- FairAirport --

// faFlowState is one registered flow: its two tag chains, its FIFO (the
// head's VirtualStart/VirtualFinish are its ASQ tags, AsqSeq its
// tie-break), the GSQ entries of its front len(GSQ) packets, and its
// pending release when ReleaseSeq > 0.
type faFlowState struct {
	ID         int            `json:"id"`
	Weight     float64        `json:"weight"`
	EAT        float64        `json:"eat,omitempty"`
	LastFinish float64        `json:"lastFinish,omitempty"`
	Bytes      float64        `json:"bytes,omitempty"`
	AsqSeq     uint64         `json:"asqSeq,omitempty"`
	Pkts       []PacketState  `json:"pkts,omitempty"`
	GSQ        []faStampState `json:"gsq,omitempty"`
	ReleaseAt  float64        `json:"releaseAt,omitempty"`
	ReleaseSeq uint64         `json:"releaseSeq,omitempty"`
	Served     bool           `json:"served,omitempty"`
}

func (fs *faFlowState) codec(c *statecodec.Codec) {
	c.Int("id", &fs.ID)
	c.Float("weight", &fs.Weight)
	c.FloatOmit("eat", &fs.EAT)
	c.FloatOmit("lastFinish", &fs.LastFinish)
	c.FloatOmit("bytes", &fs.Bytes)
	c.UintOmit("asqSeq", &fs.AsqSeq)
	statecodec.SliceOmit(c, "pkts", &fs.Pkts, (*PacketState).codec)
	statecodec.SliceOmit(c, "gsq", &fs.GSQ, (*faStampState).codec)
	c.FloatOmit("releaseAt", &fs.ReleaseAt)
	c.UintOmit("releaseSeq", &fs.ReleaseSeq)
	c.BoolOmit("served", &fs.Served)
}

func (fs *faFlowState) key() (int, float64) { return fs.ID, fs.Weight }

// faStampState is a promoted packet's GSQ entry.
type faStampState struct {
	Key    float64 `json:"key"`
	Serial uint64  `json:"serial"`
}

func (g *faStampState) codec(c *statecodec.Codec) {
	c.Float("key", &g.Key)
	c.Uint("serial", &g.Serial)
}

func (a faStampState) before(b faStampState) bool {
	return a.Key < b.Key || a.Key == b.Key && a.Serial < b.Serial
}

type faState struct {
	Last         float64       `json:"last"`
	AsqSeq       uint64        `json:"asqSeq"`
	AsqV         float64       `json:"asqV"`
	AsqMaxFinish float64       `json:"asqMaxFinish"`
	Busy         bool          `json:"busy"`
	GSQSerial    uint64        `json:"gsqSerial"`
	RegSeq       uint64        `json:"regSeq"`
	Flows        []faFlowState `json:"flows"`
}

func (st *faState) codec(c *statecodec.Codec) {
	c.Float("last", &st.Last)
	c.Uint("asqSeq", &st.AsqSeq)
	c.Float("asqV", &st.AsqV)
	c.Float("asqMaxFinish", &st.AsqMaxFinish)
	c.Bool("busy", &st.Busy)
	c.Uint("gsqSerial", &st.GSQSerial)
	c.Uint("regSeq", &st.RegSeq)
	// A scheduler with no flows writes null (a nil slice).
	if !c.Null("flows") {
		statecodec.Slice(c, "flows", &st.Flows, (*faFlowState).codec)
	}
}

// StateKind identifies Fair Airport snapshot state. The format moved once,
// when the packets moved into the flow records; "sched/fairairport" is the
// entry-slice format before it, refused at the kind check.
func (s *FairAirport) StateKind() string { return "sched/fairairport.v2" }

// AppendState serializes the full Fair Airport state flow by flow: a
// flow's promoted packets are its FIFO's front and it has at most one
// pending release, so neither the GSQ nor the regulator is written as such.
func (s *FairAirport) AppendState(b []byte) ([]byte, error) {
	st := s.captureState()
	return statecodec.Encode(b, &st, (*faState).codec)
}

// captureState copies the scheduler's state into its serializable form.
func (s *FairAirport) captureState() faState {
	st := faState{
		Last: s.last, AsqSeq: s.asqSeq, AsqV: s.asqV, AsqMaxFinish: s.asqMaxFinish,
		Busy: s.busy, GSQSerial: s.gsq.serial, RegSeq: s.reg.seq,
	}
	stamps := make(map[*Packet]faStampState, len(s.gsq.items))
	for _, it := range s.gsq.items {
		stamps[it.p] = faStampState{Key: it.key, Serial: it.serial}
	}
	for _, fi := range s.flows.ListFlows() {
		fs := faFlowState{ID: fi.Flow, Weight: fi.Weight}
		f := s.flows.Get(fi.Flow)
		if f != nil {
			fs.EAT, fs.LastFinish, fs.Bytes = f.EAT, f.LastFinish, f.bytes
		}
		if f != nil && f.n > 0 {
			fs.AsqSeq = uint64(f.headItem().sub)
			f.VisitQueued(func(p *Packet) {
				fs.Pkts = append(fs.Pkts, CapturePacket(p))
				if g, ok := stamps[p]; ok {
					fs.GSQ = append(fs.GSQ, g)
				}
			})
			if f.regPos >= 0 {
				r := s.reg.rs[f.regPos]
				fs.ReleaseAt, fs.ReleaseSeq, fs.Served = r.eat, r.seq, r.served
			}
		}
		st.Flows = append(st.Flows, fs)
	}
	return st
}

// validate checks one flow's state against the invariants the scheduler
// relies on: packets of the flow with positive lengths and the byte
// accumulator agreeing with them, GSQ entries increasing along the FIFO (so
// the GSQ pops a flow's head), and a release pending exactly when a packet
// is not yet promoted — a served one only when none is.
func (fs *faFlowState) validate(st *faState) error {
	bad := func(what string) error { return fmt.Errorf("%w: fa flow %d: %s", ErrBadState, fs.ID, what) }
	sum := 0.0
	for _, ps := range fs.Pkts {
		if !positive(ps.Length) || ps.Flow != fs.ID {
			return bad("invalid packet")
		}
		sum += ps.Length
	}
	if !closeTo(fs.Bytes, sum) || len(fs.Pkts) == 0 && fs.Bytes != 0 {
		return bad("bytes disagree with packets")
	}
	if (len(fs.Pkts) > 0) != (fs.AsqSeq > 0) || fs.AsqSeq > st.AsqSeq || len(fs.GSQ) > len(fs.Pkts) {
		return bad("ASQ sequence or GSQ length")
	}
	for i, g := range fs.GSQ {
		if g.Serial > st.GSQSerial || i > 0 && !fs.GSQ[i-1].before(g) {
			return bad("GSQ entries out of order")
		}
	}
	if held := fs.ReleaseSeq > 0; held == (len(fs.GSQ) == len(fs.Pkts)) ||
		fs.ReleaseSeq > st.RegSeq || fs.Served && (!held || len(fs.GSQ) > 0) {
		return bad("regulator release")
	}
	return nil
}

// RestoreState loads state into a freshly constructed Fair Airport.
func (s *FairAirport) RestoreState(data []byte) error {
	if s.flows.index.n != 0 || s.total != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", ErrBadState)
	}
	var st faState
	if err := decodeState(data, &st, (*faState).codec); err != nil {
		return err
	}
	// Both heaps pop in a strict total order, so the order they are
	// refilled in does not matter.
	err := restoreFlows(&s.flows, st.Flows, (*faFlowState).key, func(fs *faFlowState) error { return fs.validate(&st) }, func(fs *faFlowState) {
		f := s.flows.Record(fs.ID)
		f.EAT, f.LastFinish = fs.EAT, fs.LastFinish
		for i, ps := range fs.Pkts {
			p := ps.Packet()
			f.Push(&s.pool, 0, 0, 0, p)
			if i < len(fs.GSQ) {
				s.gsq.push(tagItem{key: fs.GSQ[i].Key, serial: fs.GSQ[i].Serial, p: p})
			}
		}
		f.promoted = int32(len(fs.GSQ))
		if f.n > 0 {
			f.bytes = fs.Bytes
			f.SetHeadKey(fs.Pkts[0].VirtualStart, float64(fs.AsqSeq))
			s.asq.Push(f)
		}
		if fs.ReleaseSeq > 0 {
			s.reg.rs = append(s.reg.rs, faRelease{})
			s.reg.up(len(s.reg.rs)-1, faRelease{eat: fs.ReleaseAt, seq: fs.ReleaseSeq, f: f, served: fs.Served})
		}
		s.total += int(f.n)
	})
	if err != nil {
		return err
	}
	s.gsq.serial, s.reg.seq = st.GSQSerial, st.RegSeq
	s.last, s.asqSeq, s.asqV, s.asqMaxFinish, s.busy = st.Last, st.AsqSeq, st.AsqV, st.AsqMaxFinish, st.Busy
	return nil
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
func (s *FairAirport) VisitQueued(fn func(*Packet)) {
	for _, fi := range s.flows.ListFlows() {
		if f := s.flows.Get(fi.Flow); f != nil {
			f.VisitQueued(fn)
		}
	}
}

// ListFlows returns the registered flows sorted by id.
func (s *FairAirport) ListFlows() []FlowInfo { return s.flows.ListFlows() }
