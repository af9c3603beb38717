package hier

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/liveops"
	"repro/internal/sched"
	"repro/internal/statecodec"
)

// SetWeight changes flow's weight from its next packet: its leaf's share,
// which the next finish tag computed uses, or through its sink.
func (h *Tree) SetWeight(flow int, weight float64) error {
	c := h.owner(flow)
	switch {
	case !positive(weight):
		return fmt.Errorf("%w: flow %d weight %v", sched.ErrBadWeight, flow, weight)
	case c == nil:
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	case h.flows.Drains().Draining(flow):
		return fmt.Errorf("%w: %d", sched.ErrFlowDraining, flow)
	case c.kind == kindLeafFlow:
		c.pf.Weight = weight
		return h.flows.Add(flow, weight)
	}
	if rc, ok := c.disc.(sched.Reconfigurable); ok {
		return rc.SetWeight(flow, weight)
	}
	return c.disc.AddFlow(flow, weight) // an upsert: DRR, Fair Airport
}

// SetCapacity reports that the tree is self-clocked at every level.
func (h *Tree) SetCapacity(float64) error { return sched.ErrNoCapacityKnob }

// DrainFlow refuses flow's arrivals and detaches it once its backlog is
// served (see sched.Reconfigurable).
func (h *Tree) DrainFlow(flow int) error {
	d := h.flows.Drains()
	switch {
	case h.owner(flow) == nil:
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	case d.Draining(flow):
		return fmt.Errorf("%w: %d", sched.ErrFlowDraining, flow)
	case h.QueuedBytes(flow) == 0:
		return h.RemoveFlow(flow)
	}
	d.Mark(flow)
	return nil
}

// finalizeDrains detaches draining flows whose backlog has emptied.
func (h *Tree) finalizeDrains() {
	d := h.flows.Drains()
	for _, f := range d.Flows() {
		if h.QueuedBytes(f) == 0 {
			d.Clear(f)
			h.RemoveFlow(f)
		}
	}
}

// ListFlows returns the flows by id, with their leaf's or sink's weight.
func (h *Tree) ListFlows() []sched.FlowInfo {
	out := h.flows.ListFlows()
	for i := range out {
		out[i].Weight = h.owner(out[i].Flow).pf.Weight
	}
	return out
}

// nodeState is one class, children in creation order. Its first fields
// are the "core/hsfq" record: the tags of its logical packet at an SFQ
// parent (kept after it leaves) and an SFQ class's HeadSFQ. A discipline's
// registry name, its liveops envelope (a raw span, written in place by
// appendEnv) and a sink's routed flows follow.
type nodeState struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Leaf   bool    `json:"leaf,omitempty"`
	Flow   int     `json:"flow,omitempty"`

	Active     bool    `json:"active,omitempty"`
	CurStart   float64 `json:"curStart,omitempty"`
	LastFinish float64 `json:"lastFinish,omitempty"`
	Serial     uint64  `json:"serial,omitempty"`

	V         float64 `json:"v,omitempty"`
	MaxFinish float64 `json:"maxFinish,omitempty"`
	SerialSrc uint64  `json:"serialSrc,omitempty"`

	Fifo     *sched.FlowQState `json:"fifo,omitempty"`
	Children []nodeState       `json:"children,omitempty"`

	Disc      string `json:"disc,omitempty"`
	Env       []byte `json:"env,omitempty"`
	Flows     []int  `json:"flows,omitempty"`
	appendEnv func([]byte) ([]byte, error)
}

func (st *nodeState) codec(c *statecodec.Codec) {
	c.String("name", &st.Name)
	c.Float("weight", &st.Weight)
	c.BoolOmit("leaf", &st.Leaf)
	c.IntOmit("flow", &st.Flow)
	c.BoolOmit("active", &st.Active)
	c.FloatOmit("curStart", &st.CurStart)
	c.FloatOmit("lastFinish", &st.LastFinish)
	c.UintOmit("serial", &st.Serial)
	c.FloatOmit("v", &st.V)
	c.FloatOmit("maxFinish", &st.MaxFinish)
	c.UintOmit("serialSrc", &st.SerialSrc)
	statecodec.Ptr(c, "fifo", &st.Fifo, (*sched.FlowQState).Codec)
	statecodec.SliceOmit(c, "children", &st.Children, (*nodeState).codec)
	c.StringOmit("disc", &st.Disc)
	c.RawOmit("env", &st.Env, st.appendEnv)
	c.IntsOmit("flows", &st.Flows)
}

type treeState struct {
	Last     float64   `json:"last"`
	Busy     bool      `json:"busy"`
	Total    int       `json:"total"`
	Seq      uint64    `json:"seq"`
	Root     nodeState `json:"root"`
	Draining []int     `json:"draining,omitempty"`
}

func (st *treeState) codec(c *statecodec.Codec) {
	c.Float("last", &st.Last)
	c.Bool("busy", &st.Busy)
	c.Int("total", &st.Total)
	c.Uint("seq", &st.Seq)
	c.Ignore("bytes") // the per-flow byte table trees once kept: read, and dropped
	statecodec.Struct(c, "root", &st.Root, (*nodeState).codec)
	c.IntsOmit("draining", &st.Draining)
}

// decode reads data as one tree state; failures wrap sched.ErrBadState.
func (st *treeState) decode(data []byte) error {
	if err := statecodec.Decode(data, st, (*treeState).codec); err != nil {
		return fmt.Errorf("%w: %v", sched.ErrBadState, err)
	}
	return nil
}

// StateKind is "hier:<canonical spec>" or "core/hsfq" (see Build).
func (h *Tree) StateKind() string { return h.kind }

// AppendState serializes the tree, disciplines' envelopes in place.
func (h *Tree) AppendState(b []byte) ([]byte, error) {
	st := treeState{Last: h.last, Busy: h.busy, Total: h.total, Seq: h.seq, Draining: h.flows.Drains().Flows()}
	var err error
	if st.Root, err = h.capture(h.root); err != nil {
		return b, err
	}
	return statecodec.Encode(b, &st, (*treeState).codec)
}

// capture copies c's subtree into its serializable form.
func (h *Tree) capture(c *node) (nodeState, error) {
	st := nodeState{
		Name: c.name, Weight: c.pf.Weight,
		Active: c.pf.Len() > 0, CurStart: c.lp.VirtualStart, LastFinish: c.pf.LastFinish, Serial: uint64(c.lp.Seq),
	}
	switch c.kind {
	case kindLeafFlow:
		st.Leaf, st.Flow = true, c.rec.ID()
		if c.rec.Len() > 0 {
			fifo := c.rec.CaptureState()
			st.Fifo = &fifo
		}
	case kindSFQ:
		st.V, st.MaxFinish, st.SerialSrc = c.q.V, c.q.MaxFinish, c.q.Serial
	default:
		snap, ok := c.disc.(sched.Snapshotter)
		if !ok {
			return st, fmt.Errorf("hier: class %q discipline %q does not support snapshots", c.name, c.discName)
		}
		st.Disc = c.discName
		st.appendEnv = func(b []byte) ([]byte, error) { return liveops.AppendSnapshotAt(b, 0, snap) }
		if c.kind == kindLeafDisc {
			for _, fi := range h.flows.ListFlows() {
				if h.owner(fi.Flow) == c {
					st.Flows = append(st.Flows, fi.Flow)
				}
			}
		}
	}
	for _, ch := range c.children {
		cs, err := h.capture(ch)
		if err != nil {
			return st, err
		}
		st.Children = append(st.Children, cs)
	}
	return st, nil
}

// RestoreState builds the empty tree again through add, each node loading
// its state. A refused state leaves the tree as it was.
func (h *Tree) RestoreState(data []byte) error {
	if len(h.flows.ListFlows()) != 0 || h.total != 0 {
		return badState("restore into non-empty scheduler")
	}
	var st treeState
	if err := st.decode(data); err != nil {
		return err
	}
	t := &Tree{spec: h.spec, kind: h.kind, cfg: h.cfg, pure: true}
	sp, bare := h.spec, h.spec.kind() == kindSFQ && len(h.spec.Children) == 0
	if bare { // a bare "hsfq": its root and classes are the state's
		sp = &Spec{Name: "sfq", Class: st.Root.Name}
	}
	root, err := t.add(nil, sp, &st.Root)
	switch {
	case err != nil:
	case subtreeCount(root) != st.Total:
		err = badState("total %d != %d queued packets", st.Total, subtreeCount(root))
	case st.Seq < t.seq:
		err = badState("push serial %d below max item serial %d", st.Seq, t.seq)
	default:
		err = t.flows.Drains().Restore(st.Draining, func(f int) bool { return t.owner(f) != nil })
	}
	if err != nil && !errors.Is(err, sched.ErrBadState) {
		err = fmt.Errorf("%w: %v", sched.ErrBadState, err)
	}
	if err == nil {
		t.root, t.last, t.busy, t.total, t.seq = root, st.Last, st.Busy, st.Total, st.Seq
		*h = *t
	}
	return err
}

func badState(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{sched.ErrBadState}, a...)...)
}

// load copies st's fields into c, which add has just made from the spec st
// must match: same name and kind, and at least its n children.
func (c *node) load(st *nodeState, n int) error {
	disc := c.kind == kindDisc || c.kind == kindLeafDisc
	if st.Name != c.name || st.Leaf != (c.kind == kindLeafFlow) || len(st.Children) < n ||
		!disc && (st.Disc != "" || st.Env != nil || st.Flows != nil) {
		return badState("state class %q (leaf %v, discipline %q, %d children) does not match tree class %q",
			st.Name, st.Leaf, st.Disc, len(st.Children), c.name)
	}
	c.pf.Weight, c.pf.LastFinish = st.Weight, st.LastFinish
	c.lp.VirtualStart, c.lp.Seq = st.CurStart, int64(st.Serial)
	if c.q != nil {
		c.q.V, c.q.MaxFinish, c.q.Serial = st.V, st.MaxFinish, st.SerialSrc
	}
	return nil
}

// loadChildren finishes a node add loaded from st once the spec's n
// children are made. st's children past them must be flow leaves (or SFQ
// classes, in a bare tree). Then a leaf's FIFO is refilled or a
// discipline restored from its envelope, and held to the tree: a sink's
// routed flows must be those its discipline holds, a discipline
// interior's pseudo backlog its subtree's packet count. An SFQ class's
// active children must hold distinct serials it handed out, and a class
// is active at an SFQ parent exactly when its subtree holds packets.
func (h *Tree) loadChildren(c *node, n int, st *nodeState) error {
	for i := n; i < len(st.Children); i++ {
		cs := &st.Children[i]
		sp := &Spec{IsFlow: cs.Leaf, Flow: cs.Flow, Weight: cs.Weight, Class: cs.Name}
		if !cs.Leaf && (h.spec.kind() != kindSFQ || len(h.spec.Children) > 0) {
			return badState("class %q has structural child %q beyond the tree's structure", st.Name, cs.Name)
		} else if !cs.Leaf {
			sp.Name = "sfq"
		}
		if _, err := h.add(c, sp, cs); err != nil {
			return err
		}
	}
	switch c.kind {
	case kindLeafFlow:
		if st.Fifo == nil {
			break
		}
		if st.Fifo.Flow != c.rec.ID() {
			return badState("leaf %q FIFO carries flow %d", c.name, st.Fifo.Flow)
		}
		for _, it := range st.Fifo.Items {
			h.seq = max(h.seq, it.Serial)
		}
		if err := c.rec.RestoreState(&h.chunks, *st.Fifo); err != nil {
			return err
		}
	case kindSFQ:
		seen := make(map[int64]bool)
		for _, ch := range c.children {
			if s := ch.lp.Seq; ch.pf.Len() > 0 && (seen[s] || uint64(s) > c.q.Serial) {
				return badState("class %q: child %q serial %d repeated or past %d", st.Name, ch.name, s, c.q.Serial)
			} else if ch.pf.Len() > 0 {
				seen[s] = true
			}
		}
	default:
		snap, ok := c.disc.(sched.Snapshotter)
		if st.Disc != c.discName || !ok || len(st.Env) == 0 {
			return badState("class %q: no %q envelope for discipline %q", c.name, st.Disc, c.discName)
		}
		if err := liveops.Restore(st.Env, snap); err != nil {
			return fmt.Errorf("hier: class %q: %w", c.name, err)
		}
		if c.kind == kindDisc && (subtreeCount(c) != c.disc.Len() || st.Flows != nil) {
			return badState("interior %q pseudo backlog %d != %d subtree packets, or routes flows", st.Name, c.disc.Len(), subtreeCount(c))
		}
		for _, f := range st.Flows {
			if _, err := h.attach(f, c.pf.Weight, c); err != nil {
				return err
			}
		}
		if fl, ok := c.disc.(sched.FlowLister); ok && c.kind == kindLeafDisc {
			if held := fl.ListFlows(); !slices.EqualFunc(held, st.Flows, func(fi sched.FlowInfo, f int) bool { return fi.Flow == f }) {
				return badState("sink %q routes flows %v, its discipline holds %v", st.Name, st.Flows, held)
			}
		}
	}
	underSFQ := c.parent != nil && c.parent.kind == kindSFQ
	switch active := c.hasContent(); {
	case st.Active && !underSFQ, underSFQ && st.Active != active:
		return badState("class %q active flag disagrees with subtree content", st.Name)
	case underSFQ && active:
		c.parent.q.Load(&c.pf, &c.lp)
	}
	return nil
}

// subtreeCount counts the real packets queued below c.
func subtreeCount(c *node) int {
	switch c.kind {
	case kindLeafFlow:
		return c.rec.Len()
	case kindLeafDisc:
		return c.disc.Len()
	}
	n := 0
	for _, ch := range c.children {
		n += subtreeCount(ch)
	}
	return n
}

// VisitQueued visits queued packets by flow, ascending, in FIFO order or,
// for a sink-routed flow, the sink's.
func (h *Tree) VisitQueued(fn func(*Packet)) {
	for _, fi := range h.flows.ListFlows() {
		if c := h.owner(fi.Flow); c.kind == kindLeafFlow {
			c.rec.VisitQueued(fn)
		} else if snap, ok := c.disc.(sched.Snapshotter); ok && c.disc.QueuedBytes(fi.Flow) > 0 {
			snap.VisitQueued(func(p *Packet) {
				if p.Flow == fi.Flow {
					fn(p)
				}
			})
		}
	}
}
