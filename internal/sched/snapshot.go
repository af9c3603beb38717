package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/statecodec"
)

// This file implements deterministic serialization of the flow-indexed
// scheduling core — FlowQ / FlowSet contents, FlowTable accounting, and
// the fluid GPS reference — as the foundation for scheduler
// snapshot/restore (internal/liveops). Discipline-specific state (virtual
// time, per-flow finish tags, ...) is layered on top in ranklive.go (the
// rank-function family) and livestate.go (the rest).
//
// Determinism contract: captured state is *canonical* — no Go maps are
// serialized (flows appear as slices sorted by id, heaps as slices sorted
// by their strict total order), and float64 values round-trip exactly
// through the shortest-form encoding internal/statecodec writes. Canonical form gives
// two properties the tests pin: (1) capturing the same schedule twice
// yields byte-identical JSON, and (2) Marshal → Restore → Marshal is a
// fixed point. Restoring a heap from its sorted order is safe because a
// sorted array is a valid min-heap, and every heap in this package pops
// in a strict total order — (key, sub, serial) or (finish, seq) — so the
// continuation schedule cannot depend on internal heap shape.
//
// What is NOT captured: Packet.Payload (opaque simulator data;
// internal/liveops carries payloads alongside a snapshot and reattaches
// them in VisitQueued order) and pool free lists (allocation caches, not
// schedule state).

// ErrBadState tags every snapshot-restore validation failure: wrong
// counts, non-monotone tags, accounting that disagrees with the queued
// packets, heap order violations. A load that fails with ErrBadState has
// not produced a usable scheduler; callers must discard the instance.
var ErrBadState = errors.New("sched: invalid snapshot state")

// Snapshotter is the optional serialization interface. AppendState
// appends the scheduler's complete scheduling state (flows, queued
// packets, virtual-time variables) in canonical deterministic form;
// RestoreState loads it into a freshly constructed scheduler of the same
// kind, validating internal invariants and failing with ErrBadState
// rather than ever producing a corrupt schedule.
type Snapshotter interface {
	// StateKind names the state format (e.g. "sched/scfq"). Restore
	// refuses state captured from a different kind.
	StateKind() string

	// AppendState appends the full scheduling state to b as canonical
	// JSON: capturing an unchanged scheduler twice yields identical
	// bytes.
	AppendState(b []byte) ([]byte, error)

	// RestoreState loads state captured by AppendState into this
	// scheduler, which must be freshly constructed (no flows, no queued
	// packets). On error (wrapped ErrBadState) the scheduler must be
	// discarded.
	RestoreState(data []byte) error

	// VisitQueued calls fn for every queued packet in a canonical order
	// (flows ascending, FIFO within a flow) — the order payload sidecars
	// are written and reattached in.
	VisitQueued(fn func(*Packet))
}

// appendState writes a whole document with enc.
func appendState(b []byte, enc func(*statecodec.Writer)) ([]byte, error) {
	w := statecodec.NewWriter(b)
	enc(&w)
	return w.Bytes()
}

// decodeState reads data as one whole document with dec. Every failure
// wraps ErrBadState.
func decodeState(data []byte, dec func(*statecodec.Reader)) error {
	r := statecodec.NewReader(data)
	dec(&r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	return nil
}

// The state types below each carry an appendJSON/decodeJSON pair next to a
// key list. The json tags document the format: appendJSON writes what
// encoding/json would write for the tagged struct, byte for byte, and
// decodeJSON reads it back strictly (see internal/statecodec).

// PacketState is the serializable form of a Packet. Payload is
// deliberately absent (see the file comment).
type PacketState struct {
	Flow          int     `json:"flow"`
	Seq           int64   `json:"seq"`
	Length        float64 `json:"len"`
	Arrival       float64 `json:"arr"`
	Rate          float64 `json:"rate,omitempty"`
	Slack         float64 `json:"slack,omitempty"`
	VirtualStart  float64 `json:"vs"`
	VirtualFinish float64 `json:"vf"`
	Deadline      float64 `json:"dl,omitempty"`
}

var packetKeys = []string{"flow", "seq", "len", "arr", "rate", "slack", "vs", "vf", "dl"}

func (ps *PacketState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("flow").Int(ps.Flow)
	w.Key("seq").Int64(ps.Seq)
	w.Key("len").Float(ps.Length)
	w.Key("arr").Float(ps.Arrival)
	if ps.Rate != 0 {
		w.Key("rate").Float(ps.Rate)
	}
	if ps.Slack != 0 {
		w.Key("slack").Float(ps.Slack)
	}
	w.Key("vs").Float(ps.VirtualStart)
	w.Key("vf").Float(ps.VirtualFinish)
	if ps.Deadline != 0 {
		w.Key("dl").Float(ps.Deadline)
	}
	w.EndObject()
}

func (ps *PacketState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(packetKeys); o.Next(); {
		switch o.Key() {
		case "flow":
			ps.Flow = r.Int()
		case "seq":
			ps.Seq = r.Int64()
		case "len":
			ps.Length = r.Float()
		case "arr":
			ps.Arrival = r.Float()
		case "rate":
			ps.Rate = r.Float()
		case "slack":
			ps.Slack = r.Float()
		case "vs":
			ps.VirtualStart = r.Float()
		case "vf":
			ps.VirtualFinish = r.Float()
		case "dl":
			ps.Deadline = r.Float()
		}
	}
}

// CapturePacket converts p to its serializable form.
func CapturePacket(p *Packet) PacketState {
	return PacketState{
		Flow: p.Flow, Seq: p.Seq, Length: p.Length, Arrival: p.Arrival,
		Rate: p.Rate, Slack: p.Slack,
		VirtualStart: p.VirtualStart, VirtualFinish: p.VirtualFinish,
		Deadline: p.Deadline,
	}
}

// Packet materializes a fresh packet (Payload nil) from the state.
func (ps PacketState) Packet() *Packet {
	return &Packet{
		Flow: ps.Flow, Seq: ps.Seq, Length: ps.Length, Arrival: ps.Arrival,
		Rate: ps.Rate, Slack: ps.Slack,
		VirtualStart: ps.VirtualStart, VirtualFinish: ps.VirtualFinish,
		Deadline: ps.Deadline,
	}
}

// QueuedItemState is one queued packet with its scheduling key triple —
// exactly the (key, sub, serial) strict total order FlowQ/TagHeap pop in.
type QueuedItemState struct {
	Key    float64     `json:"key"`
	Sub    float64     `json:"sub,omitempty"`
	Serial uint64      `json:"serial"`
	Pkt    PacketState `json:"pkt"`
}

var queuedItemKeys = []string{"key", "sub", "serial", "pkt"}

func (it *QueuedItemState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("key").Float(it.Key)
	if it.Sub != 0 {
		w.Key("sub").Float(it.Sub)
	}
	w.Key("serial").Uint(it.Serial)
	w.Key("pkt")
	it.Pkt.appendJSON(w)
	w.EndObject()
}

func (it *QueuedItemState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(queuedItemKeys); o.Next(); {
		switch o.Key() {
		case "key":
			it.Key = r.Float()
		case "sub":
			it.Sub = r.Float()
		case "serial":
			it.Serial = r.Uint()
		case "pkt":
			it.Pkt.decodeJSON(r)
		}
	}
}

// FlowQState is one flow's FIFO in arrival order.
type FlowQState struct {
	Flow  int               `json:"flow"`
	Bytes float64           `json:"bytes"`
	Items []QueuedItemState `json:"items"`
}

var flowQKeys = []string{"flow", "bytes", "items"}

// AppendJSON writes the FIFO; hierarchical SFQ leaves embed it.
func (st *FlowQState) AppendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("flow").Int(st.Flow)
	w.Key("bytes").Float(st.Bytes)
	w.Key("items")
	statecodec.AppendSlice(w, st.Items, (*QueuedItemState).appendJSON)
	w.EndObject()
}

// DecodeJSON reads what AppendJSON writes.
func (st *FlowQState) DecodeJSON(r *statecodec.Reader) {
	for o := r.Object(flowQKeys); o.Next(); {
		switch o.Key() {
		case "flow":
			st.Flow = r.Int()
		case "bytes":
			st.Bytes = r.Float()
		case "items":
			statecodec.Slice(r, &st.Items, (*QueuedItemState).decodeJSON)
		}
	}
}

// FlowSetState is the full flow-indexed backlog: backlogged flows sorted
// by id, FIFO order within each flow, plus the scheduler-wide push serial.
type FlowSetState struct {
	Serial uint64       `json:"serial"`
	Flows  []FlowQState `json:"flows"`
}

var flowSetKeys = []string{"serial", "flows"}

func (st *FlowSetState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("serial").Uint(st.Serial)
	w.Key("flows")
	statecodec.AppendSlice(w, st.Flows, (*FlowQState).AppendJSON)
	w.EndObject()
}

func (st *FlowSetState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(flowSetKeys); o.Next(); {
		switch o.Key() {
		case "serial":
			st.Serial = r.Uint()
		case "flows":
			statecodec.Slice(r, &st.Flows, (*FlowQState).DecodeJSON)
		}
	}
}

// FlowAccounting is one FlowTable row.
type FlowAccounting struct {
	Flow   int     `json:"flow"`
	Weight float64 `json:"weight"`
	Bytes  float64 `json:"bytes"`
	Count  int     `json:"count"`
}

var flowAccountingKeys = []string{"flow", "weight", "bytes", "count"}

func (a *FlowAccounting) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("flow").Int(a.Flow)
	w.Key("weight").Float(a.Weight)
	w.Key("bytes").Float(a.Bytes)
	w.Key("count").Int(a.Count)
	w.EndObject()
}

func (a *FlowAccounting) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(flowAccountingKeys); o.Next(); {
		switch o.Key() {
		case "flow":
			a.Flow = r.Int()
		case "weight":
			a.Weight = r.Float()
		case "bytes":
			a.Bytes = r.Float()
		case "count":
			a.Count = r.Int()
		}
	}
}

// closeTo reports a ≈ b under the accumulated-float-residue tolerance
// used by restore validation: stored accumulators must agree with the
// recomputed sums they summarize, then are assigned exactly so the
// continuation is bit-identical.
func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := math.Abs(a)
	if n := math.Abs(b); n > m {
		m = n
	}
	return d <= 1e-6+1e-9*m
}

// CaptureState serializes the FIFO in arrival order.
func (fq *FlowQ) CaptureState() FlowQState {
	st := FlowQState{Flow: fq.flow, Bytes: fq.bytes, Items: make([]QueuedItemState, 0, fq.n)}
	fq.eachItem(func(it *flowItem) {
		st.Items = append(st.Items, QueuedItemState{
			Key: it.key, Sub: it.sub, Serial: it.serial, Pkt: CapturePacket(it.p),
		})
	})
	return st
}

// validateFlowQState checks the per-flow invariants restore relies on:
// non-empty, packets belong to the flow, items nondecreasing under
// (key, sub, serial), and the byte accumulator agreeing with the packet
// lengths it summarizes. The head item is exempt from the monotonicity
// check: SetHeadKey/SetFlowKey (flow-level dynamic priorities, e.g. SRPT)
// rewrite the head's competing rank in place, in either direction.
func validateFlowQState(st FlowQState, wantFlowMatch bool) error {
	if len(st.Items) == 0 {
		return fmt.Errorf("%w: flow %d has empty item list", ErrBadState, st.Flow)
	}
	sum := 0.0
	for i, it := range st.Items {
		if it.Pkt.Length <= 0 {
			return fmt.Errorf("%w: flow %d item %d length %v", ErrBadState, st.Flow, i, it.Pkt.Length)
		}
		if wantFlowMatch && it.Pkt.Flow != st.Flow {
			return fmt.Errorf("%w: flow %d item %d carries flow %d", ErrBadState, st.Flow, i, it.Pkt.Flow)
		}
		if i > 1 {
			prev := st.Items[i-1]
			a := flowItem{key: it.Key, sub: it.Sub, serial: it.Serial}
			b := flowItem{key: prev.Key, sub: prev.Sub, serial: prev.Serial}
			if a.less(b) {
				return fmt.Errorf("%w: flow %d tags not monotone at item %d", ErrBadState, st.Flow, i)
			}
		}
		sum += it.Pkt.Length
	}
	if !closeTo(st.Bytes, sum) {
		return fmt.Errorf("%w: flow %d bytes %v != queued sum %v", ErrBadState, st.Flow, st.Bytes, sum)
	}
	return nil
}

// restoreState loads st into an empty FIFO, drawing chunks from pool. The
// byte accumulator is assigned exactly (it is an accumulator, carrying
// float residue the recomputed sum would not reproduce).
func (fq *FlowQ) restoreState(pool *ChunkPool, st FlowQState) {
	for i, it := range st.Items {
		fq.Push(pool, it.Key, it.Sub, it.Serial, it.Pkt.Packet())
		if i == 0 {
			// The head's competing rank may have been rewritten in place
			// (SetHeadKey — SRPT's queued-bytes rank), so the monotone
			// chain the push assert guards starts at the second item,
			// matching validateFlowQState.
			fq.mono.reset()
		}
	}
	fq.bytes = st.Bytes
}

// RestoreState validates st and loads it into an empty standalone FlowQ,
// drawing chunks from pool — for schedulers outside this package that
// embed FlowQ directly (hierarchical SFQ leaves). The packets' flow ids
// must match st.Flow.
func (fq *FlowQ) RestoreState(pool *ChunkPool, st FlowQState) error {
	if fq.n != 0 {
		return fmt.Errorf("%w: restore into non-empty FlowQ", ErrBadState)
	}
	if err := validateFlowQState(st, true); err != nil {
		return err
	}
	fq.restoreState(pool, st)
	return nil
}

// VisitQueued calls fn for every queued packet in FIFO order.
func (fq *FlowQ) VisitQueued(fn func(*Packet)) {
	fq.eachItem(func(it *flowItem) { fn(it.p) })
}

// backlogged returns the flows holding packets — the heap's members —
// sorted by id.
func (fs *FlowSet) backlogged() []*Flow {
	out := make([]*Flow, 0, fs.heap.Len())
	fs.heap.each(func(f *Flow) { out = append(out, f) })
	sort.Slice(out, func(i, j int) bool { return out[i].flow < out[j].flow })
	return out
}

// CaptureState serializes the backlog: flows sorted ascending, FIFO
// within each flow. Drained flows (a record, no packets, no chunk) hold no
// schedule state and are skipped.
func (fs *FlowSet) CaptureState() FlowSetState {
	st := FlowSetState{Serial: fs.serial}
	busy := fs.backlogged()
	st.Flows = make([]FlowQState, len(busy))
	for i, f := range busy {
		st.Flows[i] = f.CaptureState()
	}
	return st
}

// RestoreState loads st into an empty FlowSet, validating invariants
// first (ErrBadState on any violation): flow ids strictly ascending,
// per-flow tag monotonicity, byte accounting, and the push serial
// covering every item serial. The heap is rebuilt from scratch; pop order
// is unaffected by heap shape (strict total order).
func (fs *FlowSet) RestoreState(st FlowSetState) error {
	if fs.total != 0 {
		return fmt.Errorf("%w: restore into non-empty FlowSet (%d queued)", ErrBadState, fs.total)
	}
	var maxSerial uint64
	for i, q := range st.Flows {
		if i > 0 && q.Flow <= st.Flows[i-1].Flow {
			return fmt.Errorf("%w: flow ids not ascending at %d", ErrBadState, q.Flow)
		}
		if err := validateFlowQState(q, true); err != nil {
			return err
		}
		for _, it := range q.Items {
			if it.Serial > maxSerial {
				maxSerial = it.Serial
			}
		}
	}
	if st.Serial < maxSerial {
		return fmt.Errorf("%w: push serial %d below max item serial %d", ErrBadState, st.Serial, maxSerial)
	}
	for _, q := range st.Flows {
		f := fs.Record(q.Flow)
		f.restoreState(&fs.pool, q)
		fs.heap.Push(f)
		fs.total += int(f.n)
	}
	fs.serial = st.Serial
	return nil
}

// VisitQueued calls fn for every queued packet: flows ascending, FIFO
// within each flow — the canonical payload-sidecar order.
func (fs *FlowSet) VisitQueued(fn func(*Packet)) {
	for _, f := range fs.backlogged() {
		f.FlowQ.VisitQueued(fn)
	}
}

// Each calls fn for every registered flow's record, ascending by id. A
// flow that has no record yet is shown as a detached empty one (weight
// only), so enumerating never grows the table.
func (t *FlowTable) Each(fn func(*Flow)) {
	ids := make([]int, 0, len(t.Weights))
	for id := range t.Weights {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f := t.flows.get(id)
		if f == nil {
			f = &Flow{FlowQ: FlowQ{flow: id}, Weight: t.Weights[id]}
		}
		fn(f)
	}
}

// queuedTotal sums the per-flow packet counts.
func (t *FlowTable) queuedTotal() int {
	n := 0
	t.flows.each(func(f *Flow) { n += int(f.n) })
	return n
}

// CaptureAccounting serializes the flow registry sorted by flow id.
func (t *FlowTable) CaptureAccounting() []FlowAccounting {
	out := make([]FlowAccounting, 0, len(t.Weights))
	t.Each(func(f *Flow) {
		out = append(out, FlowAccounting{Flow: f.flow, Weight: f.Weight, Bytes: f.bytes, Count: int(f.n)})
	})
	return out
}

// RestoreAccounting replaces the registry's contents. It *registers* the
// flows — a freshly constructed scheduler needs no AddFlow calls before
// restore — and sets their queued counters, which DRR checks its refilled
// FIFOs against. The Weights map is cleared in place, never reallocated.
func (t *FlowTable) RestoreAccounting(accts []FlowAccounting) error {
	for i, a := range accts {
		if i > 0 && a.Flow <= accts[i-1].Flow {
			return fmt.Errorf("%w: accounting flow ids not ascending at %d", ErrBadState, a.Flow)
		}
		if !positive(a.Weight) {
			return fmt.Errorf("%w: flow %d weight %v", ErrBadState, a.Flow, a.Weight)
		}
		if a.Count < 0 || a.Bytes < 0 {
			return fmt.Errorf("%w: flow %d negative accounting", ErrBadState, a.Flow)
		}
		if a.Count > math.MaxInt32 { // a FIFO counts its packets in an int32
			return fmt.Errorf("%w: flow %d count %d", ErrBadState, a.Flow, a.Count)
		}
		if a.Count == 0 && a.Bytes != 0 {
			return fmt.Errorf("%w: flow %d idle with %v bytes", ErrBadState, a.Flow, a.Bytes)
		}
	}
	for k := range t.Weights {
		delete(t.Weights, k)
	}
	t.flows.reset()
	for _, a := range accts {
		_ = t.Add(a.Flow, a.Weight) // cannot fail: weight validated above, nothing draining yet
		if a.Count > 0 {
			f := t.Registered(a.Flow)
			f.n, f.bytes = int32(a.Count), a.Bytes
		}
	}
	return nil
}

// GPSFlowCount is one fluid-busy flow's outstanding fluid packet count.
type GPSFlowCount struct {
	Flow  int `json:"flow"`
	Count int `json:"count"`
}

var gpsFlowCountKeys = []string{"flow", "count"}

func (c *GPSFlowCount) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("flow").Int(c.Flow)
	w.Key("count").Int(c.Count)
	w.EndObject()
}

func (c *GPSFlowCount) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(gpsFlowCountKeys); o.Next(); {
		switch o.Key() {
		case "flow":
			c.Flow = r.Int()
		case "count":
			c.Count = r.Int()
		}
	}
}

// GPSEntryState is one pending fluid departure.
type GPSEntryState struct {
	Finish float64 `json:"finish"`
	Seq    uint64  `json:"seq"`
	Flow   int     `json:"flow"`
}

var gpsEntryKeys = []string{"finish", "seq", "flow"}

func (e *GPSEntryState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("finish").Float(e.Finish)
	w.Key("seq").Uint(e.Seq)
	w.Key("flow").Int(e.Flow)
	w.EndObject()
}

func (e *GPSEntryState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(gpsEntryKeys); o.Next(); {
		switch o.Key() {
		case "finish":
			e.Finish = r.Float()
		case "seq":
			e.Seq = r.Uint()
		case "flow":
			e.Flow = r.Int()
		}
	}
}

// GPSState is the fluid GPS reference system: virtual-time variables plus
// the pending departures sorted by (finish, seq) — a sorted array is a
// valid min-heap, and (finish, seq) is a strict total order, so the
// restored fluid simulation departs in exactly the original sequence.
type GPSState struct {
	C     float64         `json:"c"`
	V     float64         `json:"v"`
	LastT float64         `json:"lastT"`
	SumW  float64         `json:"sumW"`
	Seq   uint64          `json:"seq"`
	Busy  []GPSFlowCount  `json:"busy"`
	Queue []GPSEntryState `json:"queue"`
}

var gpsKeys = []string{"c", "v", "lastT", "sumW", "seq", "busy", "queue"}

func (st *GPSState) appendJSON(w *statecodec.Writer) {
	w.BeginObject()
	w.Key("c").Float(st.C)
	w.Key("v").Float(st.V)
	w.Key("lastT").Float(st.LastT)
	w.Key("sumW").Float(st.SumW)
	w.Key("seq").Uint(st.Seq)
	w.Key("busy")
	statecodec.AppendSlice(w, st.Busy, (*GPSFlowCount).appendJSON)
	w.Key("queue")
	statecodec.AppendSlice(w, st.Queue, (*GPSEntryState).appendJSON)
	w.EndObject()
}

func (st *GPSState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(gpsKeys); o.Next(); {
		switch o.Key() {
		case "c":
			st.C = r.Float()
		case "v":
			st.V = r.Float()
		case "lastT":
			st.LastT = r.Float()
		case "sumW":
			st.SumW = r.Float()
		case "seq":
			st.Seq = r.Uint()
		case "busy":
			statecodec.Slice(r, &st.Busy, (*GPSFlowCount).decodeJSON)
		case "queue":
			statecodec.Slice(r, &st.Queue, (*GPSEntryState).decodeJSON)
		}
	}
}

// captureState serializes the fluid system in canonical form.
func (g *gps) captureState() GPSState {
	st := GPSState{C: g.c, V: g.v, LastT: g.lastT, SumW: g.sumW, Seq: g.seq}
	ids := make([]int, 0, len(g.count))
	for f, n := range g.count {
		if n > 0 {
			ids = append(ids, f)
		}
	}
	sort.Ints(ids)
	st.Busy = make([]GPSFlowCount, 0, len(ids))
	for _, f := range ids {
		st.Busy = append(st.Busy, GPSFlowCount{Flow: f, Count: g.count[f]})
	}
	st.Queue = make([]GPSEntryState, len(g.h))
	for i, e := range g.h {
		st.Queue[i] = GPSEntryState{Finish: e.finish, Seq: e.seq, Flow: e.flow}
	}
	sort.Slice(st.Queue, func(i, j int) bool {
		a, b := st.Queue[i], st.Queue[j]
		if a.Finish != b.Finish {
			return a.Finish < b.Finish
		}
		return a.Seq < b.Seq
	})
	return st
}

// restoreState loads st into a fresh fluid system. The weights map must
// already hold every busy flow (restore FlowTable accounting first). SumW
// is validated against the recomputed weight sum, then assigned exactly.
func (g *gps) restoreState(st GPSState) error {
	if len(g.h) != 0 || g.seq != 0 {
		return fmt.Errorf("%w: restore into non-empty GPS", ErrBadState)
	}
	// An assumed capacity is finite and positive; the WFQ oracle's is 0 on
	// both sides (it follows C(t)), and neither loads into the other.
	if g.c == 0 && st.C != 0 || g.c != 0 && !positive(st.C) {
		return fmt.Errorf("%w: GPS capacity %v", ErrBadState, st.C)
	}
	perFlow := make(map[int]int, len(st.Busy))
	sumW := 0.0
	for i, b := range st.Busy {
		if i > 0 && b.Flow <= st.Busy[i-1].Flow {
			return fmt.Errorf("%w: GPS busy flows not ascending at %d", ErrBadState, b.Flow)
		}
		if b.Count <= 0 {
			return fmt.Errorf("%w: GPS flow %d count %d", ErrBadState, b.Flow, b.Count)
		}
		w, ok := g.weights[b.Flow]
		if !ok {
			return fmt.Errorf("%w: GPS busy flow %d not registered", ErrBadState, b.Flow)
		}
		perFlow[b.Flow] = b.Count
		sumW += w
	}
	if !closeTo(st.SumW, sumW) {
		return fmt.Errorf("%w: GPS sumW %v != busy weight sum %v", ErrBadState, st.SumW, sumW)
	}
	queued := make(map[int]int, len(perFlow))
	var maxSeq uint64
	for i, e := range st.Queue {
		if i > 0 {
			prev := st.Queue[i-1]
			if e.Finish < prev.Finish || (e.Finish == prev.Finish && e.Seq <= prev.Seq) {
				return fmt.Errorf("%w: GPS queue not sorted at entry %d", ErrBadState, i)
			}
		}
		queued[e.Flow]++
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
	}
	if st.Seq < maxSeq {
		return fmt.Errorf("%w: GPS seq %d below max entry seq %d", ErrBadState, st.Seq, maxSeq)
	}
	if len(queued) != len(perFlow) {
		return fmt.Errorf("%w: GPS busy flows %d != flows with departures %d", ErrBadState, len(perFlow), len(queued))
	}
	for f, n := range perFlow {
		if queued[f] != n {
			return fmt.Errorf("%w: GPS flow %d count %d != %d departures", ErrBadState, f, n, queued[f])
		}
	}
	g.c, g.v, g.lastT, g.seq = st.C, st.V, st.LastT, st.Seq
	g.sumW = st.SumW
	for f, n := range perFlow {
		g.count[f] = n
	}
	g.h = make(gpsHeap, len(st.Queue))
	for i, e := range st.Queue {
		g.h[i] = gpsEntry{finish: e.Finish, seq: e.Seq, flow: e.Flow}
	}
	return nil
}

// reweigh adjusts the fluid share sum for a live weight change on flow:
// if the flow is fluid-busy its old weight leaves B(t)'s sum and the new
// one enters, effective from the last advance point. The weights map is
// shared with the caller's FlowTable; the caller writes the new weight
// AFTER this call (the old weight is read from the map here).
func (g *gps) reweigh(flow int, w float64) {
	if g.count[flow] > 0 {
		g.sumW += w - g.weights[flow]
		if g.sumW < 1e-12 {
			g.sumW = 0
		}
	}
}
