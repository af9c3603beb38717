package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/statecodec"
)

// This file serializes the flow-indexed scheduling core — FlowQ and
// FlowSet contents, FlowTable rows, the fluid GPS reference — for scheduler
// snapshot/restore (internal/liveops); ranklive.go and livestate.go layer
// the disciplines' own state on top.
//
// Captured state is canonical: no Go map is serialized (flows are slices
// sorted by id, heaps slices sorted by their strict total order), and
// floats round-trip exactly. So capturing a schedule twice yields the same
// bytes, and capture → restore → capture is a fixed point. A sorted array
// is a valid min-heap and every heap here pops in a strict total order, so
// the continuation cannot depend on heap shape. Packet payloads (carried
// beside a snapshot by liveops) and pool free lists are not captured.

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

// decodeState reads data into v as one whole document. Every failure wraps
// ErrBadState.
func decodeState[T any](data []byte, v *T, fn func(*T, *statecodec.Codec)) error {
	if err := statecodec.Decode(data, v, fn); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	return nil
}

// Each state type below states its format once, in a codec method that
// visits its fields in order (see internal/statecodec). The json tags
// document the format: the codec writes what encoding/json writes for the
// tagged struct, byte for byte, and reads it back strictly.

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

func (ps *PacketState) codec(c *statecodec.Codec) {
	c.Int("flow", &ps.Flow)
	c.Int64("seq", &ps.Seq)
	c.Float("len", &ps.Length)
	c.Float("arr", &ps.Arrival)
	c.FloatOmit("rate", &ps.Rate)
	c.FloatOmit("slack", &ps.Slack)
	c.Float("vs", &ps.VirtualStart)
	c.Float("vf", &ps.VirtualFinish)
	c.FloatOmit("dl", &ps.Deadline)
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

func (it *QueuedItemState) codec(c *statecodec.Codec) {
	c.Float("key", &it.Key)
	c.FloatOmit("sub", &it.Sub)
	c.Uint("serial", &it.Serial)
	statecodec.Struct(c, "pkt", &it.Pkt, (*PacketState).codec)
}

// FlowQState is one flow's FIFO in arrival order.
type FlowQState struct {
	Flow  int               `json:"flow"`
	Bytes float64           `json:"bytes"`
	Items []QueuedItemState `json:"items"`
}

// Codec visits the FIFO's fields; hierarchical SFQ leaves embed it.
func (st *FlowQState) Codec(c *statecodec.Codec) {
	c.Int("flow", &st.Flow)
	c.Float("bytes", &st.Bytes)
	statecodec.Slice(c, "items", &st.Items, (*QueuedItemState).codec)
}

// FlowSetState is the full flow-indexed backlog: backlogged flows sorted
// by id, FIFO order within each flow, plus the scheduler-wide push serial.
type FlowSetState struct {
	Serial uint64       `json:"serial"`
	Flows  []FlowQState `json:"flows"`
}

func (st *FlowSetState) codec(c *statecodec.Codec) {
	c.Uint("serial", &st.Serial)
	statecodec.Slice(c, "flows", &st.Flows, (*FlowQState).Codec)
}

// FlowAccounting is one FlowTable row.
type FlowAccounting struct {
	Flow   int     `json:"flow"`
	Weight float64 `json:"weight"`
	Bytes  float64 `json:"bytes"`
	Count  int     `json:"count"`
}

func (a *FlowAccounting) codec(c *statecodec.Codec) {
	c.Int("flow", &a.Flow)
	c.Float("weight", &a.Weight)
	c.Float("bytes", &a.Bytes)
	c.Int("count", &a.Count)
}

// closeTo reports a ≈ b under the accumulated-float-residue tolerance
// used by restore validation: stored accumulators must agree with the
// recomputed sums they summarize, then are assigned exactly so the
// continuation is bit-identical.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6+1e-9*math.Max(math.Abs(a), math.Abs(b))
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
func validateFlowQState(st FlowQState) error {
	if len(st.Items) == 0 {
		return fmt.Errorf("%w: flow %d has empty item list", ErrBadState, st.Flow)
	}
	sum := 0.0
	for i, it := range st.Items {
		if it.Pkt.Length <= 0 {
			return fmt.Errorf("%w: flow %d item %d length %v", ErrBadState, st.Flow, i, it.Pkt.Length)
		}
		if it.Pkt.Flow != st.Flow {
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

// RestoreState validates st and loads it into an empty FIFO, drawing
// chunks from pool. The packets' flow ids must match st.Flow. The byte
// accumulator is assigned exactly (it carries float residue the recomputed
// sum would not reproduce).
func (fq *FlowQ) RestoreState(pool *ChunkPool, st FlowQState) error {
	if fq.n != 0 {
		return fmt.Errorf("%w: restore into non-empty FlowQ", ErrBadState)
	}
	if err := validateFlowQState(st); err != nil {
		return err
	}
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

// RestoreState loads st into an empty FlowSet (ErrBadState on any
// violation): flow ids strictly ascending and registered, each FIFO valid,
// and the push serial covering every item serial. The heap is rebuilt from
// scratch; pop order is unaffected by heap shape (strict total order).
func (fs *FlowSet) RestoreState(st FlowSetState) error {
	if fs.total != 0 {
		return fmt.Errorf("%w: restore into non-empty FlowSet (%d queued)", ErrBadState, fs.total)
	}
	var maxSerial uint64
	for i, q := range st.Flows {
		if i > 0 && q.Flow <= st.Flows[i-1].Flow {
			return fmt.Errorf("%w: flow ids not ascending at %d", ErrBadState, q.Flow)
		}
		if fs.Weight(q.Flow) == 0 {
			return fmt.Errorf("%w: queued packets for unregistered flow %d", ErrBadState, q.Flow)
		}
		f := fs.Record(q.Flow)
		if err := f.RestoreState(&fs.pool, q); err != nil {
			return err
		}
		fs.heap.Push(f)
		fs.total += int(f.n)
		for _, it := range q.Items {
			maxSerial = max(maxSerial, it.Serial)
		}
	}
	if st.Serial < maxSerial {
		return fmt.Errorf("%w: push serial %d below max item serial %d", ErrBadState, st.Serial, maxSerial)
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

// queuedTotal sums the per-flow packet counts.
func (t *FlowTable) queuedTotal() int {
	n := 0
	for i := range t.index.slots {
		if f := t.live(&t.index.slots[i]); f != nil {
			n += int(f.n)
		}
	}
	return n
}

// CaptureAccounting serializes the flow registry sorted by flow id.
func (t *FlowTable) CaptureAccounting() []FlowAccounting {
	out := make([]FlowAccounting, 0, t.index.n)
	for _, fi := range t.ListFlows() {
		a := FlowAccounting{Flow: fi.Flow, Weight: fi.Weight}
		if f := t.Get(fi.Flow); f != nil {
			a.Bytes, a.Count = f.bytes, int(f.n)
		}
		out = append(out, a)
	}
	return out
}

// restoreFlows loads a snapshot's per-flow rows into the registry. It
// *registers* the flows — a freshly constructed scheduler needs no AddFlow
// calls before restore — after checking every row first (ids strictly
// ascending, weights finite and positive, and the discipline's own check),
// so a refused restore changes nothing; then load fills in each row's
// flow. The registry is emptied in place, its slots and pool kept.
func restoreFlows[R any](t *FlowTable, rows []R, key func(*R) (int, float64), check func(*R) error, load func(*R)) error {
	prev := 0
	for i := range rows {
		id, w := key(&rows[i])
		switch {
		case i > 0 && id <= prev:
			return fmt.Errorf("%w: flow ids not ascending at %d", ErrBadState, id)
		case !positive(w):
			return fmt.Errorf("%w: flow %d weight %v", ErrBadState, id, w)
		}
		if err := check(&rows[i]); err != nil {
			return err
		}
		prev = id
	}
	t.index.reset()
	t.leased, t.spare = 0, t.spare[:0]
	for i := range rows {
		id, w := key(&rows[i])
		_ = t.Add(id, w) // cannot fail: weight checked above, nothing draining yet
		load(&rows[i])
	}
	return nil
}

func (a *FlowAccounting) key() (int, float64) { return a.Flow, a.Weight }

// restoreAccounting loads FlowTable rows, setting each backlogged flow's
// queued counters, which DRR checks its refilled FIFOs against; an idle
// flow gets no record.
func (t *FlowTable) restoreAccounting(accts []FlowAccounting) error {
	return restoreFlows(t, accts, (*FlowAccounting).key, func(a *FlowAccounting) error {
		switch {
		case a.Count < 0 || a.Bytes < 0:
			return fmt.Errorf("%w: flow %d negative accounting", ErrBadState, a.Flow)
		case a.Count > math.MaxInt32: // a FIFO counts its packets in an int32
			return fmt.Errorf("%w: flow %d count %d", ErrBadState, a.Flow, a.Count)
		case a.Count == 0 && a.Bytes != 0:
			return fmt.Errorf("%w: flow %d idle with %v bytes", ErrBadState, a.Flow, a.Bytes)
		}
		return nil
	}, func(a *FlowAccounting) {
		if a.Count > 0 {
			f := t.Record(a.Flow)
			f.n, f.bytes = int32(a.Count), a.Bytes
		}
	})
}

// GPSFlowCount is one fluid-busy flow's outstanding fluid packet count.
type GPSFlowCount struct {
	Flow  int `json:"flow"`
	Count int `json:"count"`
}

func (fc *GPSFlowCount) codec(c *statecodec.Codec) {
	c.Int("flow", &fc.Flow)
	c.Int("count", &fc.Count)
}

// GPSEntryState is one pending fluid departure.
type GPSEntryState struct {
	Finish float64 `json:"finish"`
	Seq    uint64  `json:"seq"`
	Flow   int     `json:"flow"`
}

func (e *GPSEntryState) codec(c *statecodec.Codec) {
	c.Float("finish", &e.Finish)
	c.Uint("seq", &e.Seq)
	c.Int("flow", &e.Flow)
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

func (st *GPSState) codec(c *statecodec.Codec) {
	c.Float("c", &st.C)
	c.Float("v", &st.V)
	c.Float("lastT", &st.LastT)
	c.Float("sumW", &st.SumW)
	c.Uint("seq", &st.Seq)
	statecodec.Slice(c, "busy", &st.Busy, (*GPSFlowCount).codec)
	statecodec.Slice(c, "queue", &st.Queue, (*GPSEntryState).codec)
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

// restoreState loads st into a fresh fluid system. The registry must
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
		w := g.weights.Weight(b.Flow)
		if w == 0 {
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
		maxSeq = max(maxSeq, e.Seq)
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
// one enters, effective from the last advance point. The caller writes
// the new weight into the registry AFTER this call (the old weight is read
// from it here).
func (g *gps) reweigh(flow int, w float64) {
	if g.count[flow] > 0 {
		g.sumW += w - g.weights.Weight(flow)
		if g.sumW < 1e-12 {
			g.sumW = 0
		}
	}
}
