package hier

import (
	"fmt"
	"sort"

	"repro/internal/liveops"
	"repro/internal/sched"
	"repro/internal/statecodec"
)

// This file implements sched.Reconfigurable (live mutation) and
// sched.Snapshotter (deterministic serialization) for the generic tree.
// Pure SFQ-of-SFQs trees — the "hsfq" instance — serialize to exactly
// the pre-refactor "core/hsfq" byte format; discipline-backed nodes
// append their own versioned liveops envelopes to the node record, so
// snapshots recurse: the tree's state embeds each node discipline's
// state, digest-pinned, and restore rebuilds them level by level.

// ---------------------------------------------------------- Reconfigure --

// SetWeight changes flow's weight for packets arriving after the call.
// Flow-leaf classes change their share weight (finish tags are computed
// at dequeue time with the weight then in force — the eq 5 refinement —
// so the change applies from the next packet the leaf schedules, no
// retagging). Flows routed into sink classes are forwarded to the sink's
// discipline.
func (h *Tree) SetWeight(flow int, weight float64) error {
	if !positive(weight) {
		return fmt.Errorf("%w: flow %d weight %v", sched.ErrBadWeight, flow, weight)
	}
	c, ok := h.leaves[flow]
	if !ok {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	if h.draining.Draining(flow) {
		return fmt.Errorf("%w: %d", sched.ErrFlowDraining, flow)
	}
	if c.kind == kindLeafDisc {
		if rc, ok := c.disc.(sched.Reconfigurable); ok {
			return rc.SetWeight(flow, weight)
		}
		// Disciplines without the live-mutation surface (DRR, Priority,
		// Fair Airport) re-register: AddFlow is an upsert (Interface), and
		// the new weight applies from the flow's next quantum or packet.
		return c.disc.AddFlow(flow, weight)
	}
	c.weight = weight
	return nil
}

// SetCapacity reports that the tree is self-clocked at every level.
func (h *Tree) SetCapacity(float64) error { return sched.ErrNoCapacityKnob }

// DrainFlow removes a leaf flow gracefully (see sched.Reconfigurable):
// plain flow leaves and sink-routed flows alike refuse new arrivals,
// serve their backlog normally, and unregister once empty.
func (h *Tree) DrainFlow(flow int) error {
	c, ok := h.leaves[flow]
	if !ok {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	if h.draining.Draining(flow) {
		return fmt.Errorf("%w: %d", sched.ErrFlowDraining, flow)
	}
	if c.kind == kindLeafDisc {
		if c.disc.QueuedBytes(flow) == 0 {
			return h.RemoveFlow(flow)
		}
	} else if !c.active && c.queued() == 0 {
		return h.RemoveFlow(flow)
	}
	h.draining.Mark(flow)
	return nil
}

// finalizeDrains detaches draining flows whose backlog has emptied.
func (h *Tree) finalizeDrains() {
	for _, f := range h.draining.Flows() {
		c := h.leaves[f]
		if c == nil {
			continue
		}
		switch {
		case c.kind == kindLeafDisc:
			if c.disc.QueuedBytes(f) != 0 {
				continue
			}
		case c.active || c.queued() > 0:
			continue
		}
		h.draining.Clear(f)
		h.RemoveFlow(f)
	}
}

// ListFlows returns the attached flows sorted by id. The reported weight
// is the leaf class's share weight (for sink-routed flows, the class's —
// the discipline owns the per-flow parameters).
func (h *Tree) ListFlows() []sched.FlowInfo {
	out := make([]sched.FlowInfo, 0, len(h.leaves))
	for f, c := range h.leaves {
		out = append(out, sched.FlowInfo{Flow: f, Weight: c.weight})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// ------------------------------------------------------------- Snapshot --

// nodeState is one class in the link-sharing tree, children in creation
// order (creation order is schedule state: it breaks curStart ties via
// activation serials and fixes sibling identity). The first block of
// fields is the pre-hier "core/hsfq" record, byte-for-byte; the trailing
// Disc/Env/Flows fields serialize discipline-backed nodes and stay
// omitted on pure SFQ trees, keeping legacy snapshots byte-identical.
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

	// Disc is the registry name of a discipline-backed node (interior or
	// sink); Env is that discipline's own liveops snapshot envelope —
	// versioned and digest-pinned, so tree snapshots recurse — read as a
	// raw span of the tree's bytes and written in place by appendEnv.
	// Flows lists the real flows routed into a sink node (ascending); the
	// routing is tree state, not discipline state.
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
	// The per-flow byte table trees once kept beside their leaves' counts:
	// still read, and dropped.
	c.Ignore("bytes")
	statecodec.Struct(c, "root", &st.Root, (*nodeState).codec)
	c.IntsOmit("draining", &st.Draining)
}

// decode reads data as one whole tree state. Every failure wraps
// sched.ErrBadState.
func (st *treeState) decode(data []byte) error {
	if err := statecodec.Decode(data, st, (*treeState).codec); err != nil {
		return fmt.Errorf("%w: %v", sched.ErrBadState, err)
	}
	return nil
}

// StateKind identifies the tree's snapshot state: "core/hsfq" for HSFQ
// instances, "hier:<spec>" for grammar-built compositions (the canonical
// spec string, so restore refuses a mismatched topology before the
// structural walk even runs).
func (h *Tree) StateKind() string { return h.kind }

// AppendState serializes the whole link-sharing tree: per-class tags and
// virtual times, leaf FIFOs in arrival order, embedded discipline
// envelopes for discipline-backed nodes, written in place. Byte
// accounting lives in the leaves (each FIFO and each sink discipline
// serializes its own).
func (h *Tree) AppendState(b []byte) ([]byte, error) {
	st := treeState{Last: h.last, Busy: h.busy, Total: h.total, Seq: h.seq, Draining: h.draining.Flows()}
	var err error
	if st.Root, err = h.captureNode(h.root); err != nil {
		return b, err
	}
	return statecodec.Encode(b, &st, (*treeState).codec)
}

// captureNode copies c's subtree into its serializable form, children in
// creation order.
func (h *Tree) captureNode(c *node) (nodeState, error) {
	st := nodeState{
		Name: c.name, Weight: c.weight, Leaf: c.kind == kindLeafFlow, Flow: c.flow,
		Active: c.active, CurStart: c.curStart, LastFinish: c.lastFinish, Serial: c.serial,
		V: c.v, MaxFinish: c.maxFinish, SerialSrc: c.serialSrc,
	}
	switch c.kind {
	case kindLeafFlow:
		if c.queued() > 0 {
			fifo := c.fifo.CaptureState()
			fifo.Flow = c.flow
			st.Fifo = &fifo
		}
		return st, nil
	case kindDisc, kindLeafDisc:
		snap, ok := c.disc.(sched.Snapshotter)
		if !ok {
			return st, fmt.Errorf("hier: class %q discipline %q does not support snapshots", c.name, c.discName)
		}
		st.Disc = c.discName
		st.appendEnv = func(b []byte) ([]byte, error) {
			out, err := liveops.AppendSnapshotAt(b, 0, snap)
			if err != nil {
				err = fmt.Errorf("hier: class %q: %w", c.name, err)
			}
			return out, err
		}
		if c.kind == kindLeafDisc {
			st.Flows = h.sinkFlows(c)
			return st, nil
		}
	}
	for _, ch := range c.children {
		cs, err := h.captureNode(ch)
		if err != nil {
			return st, err
		}
		st.Children = append(st.Children, cs)
	}
	return st, nil
}

// sinkFlows lists the flows routed into the sink c, ascending.
func (h *Tree) sinkFlows(c *node) []int {
	var flows []int
	for f, leaf := range h.leaves {
		if leaf == c {
			flows = append(flows, f)
		}
	}
	sort.Ints(flows)
	return flows
}

// RestoreState loads state into a freshly constructed, empty tree: a bare
// "hsfq" tree (an SFQ root with no children) rebuilds its classes from the
// state (and refuses discipline nodes, which it could not construct),
// while any other tree walks the state against the classes Build made
// (see treeRestore.load). Child heaps are rebuilt by pushing the active
// children in their strict (curStart, serial) order.
func (h *Tree) RestoreState(data []byte) error {
	if len(h.leaves) != 0 || h.total != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", sched.ErrBadState)
	}
	structured := len(h.root.children) != 0 || h.root.kind != kindSFQ
	var st treeState
	if err := st.decode(data); err != nil {
		return err
	}
	rs := &treeRestore{h: h, structured: structured}
	var root *node
	if structured {
		root = h.root
	}
	root, _, err := rs.load(&st.Root, root, nil)
	if err != nil {
		return err
	}
	if rs.total != st.Total {
		return fmt.Errorf("%w: hsfq total %d != %d queued packets", sched.ErrBadState, st.Total, rs.total)
	}
	if st.Seq < rs.maxSerial {
		return fmt.Errorf("%w: hsfq push serial %d below max item serial %d", sched.ErrBadState, st.Seq, rs.maxSerial)
	}
	if err := h.draining.Restore(st.Draining, func(f int) bool { return h.leaves[f] != nil }); err != nil {
		return err
	}
	h.root = root
	h.last, h.busy, h.total, h.seq = st.Last, st.Busy, st.Total, st.Seq
	return nil
}

// treeRestore accumulates cross-tree restore bookkeeping.
type treeRestore struct {
	h          *Tree
	structured bool // the tree's classes are built already; only flow leaves are made
	total      int
	maxSerial  uint64
}

// load loads one class subtree from st into c, or into a class it makes
// when c is nil: a flow leaf (flow leaves are dynamic — attached by
// AddFlow — so a fresh constructor does not have them), or any class of a
// bare "hsfq" tree. An existing class must match st by name and kind, and
// its structural children st's one-to-one. A discipline-backed class's
// discipline is rebuilt fresh from the registry and restored from its
// embedded envelope. node returns the class and whether its subtree holds
// any packet, to cross-check the active flags, which drive the child heaps
// and hence the schedule.
func (rs *treeRestore) load(st *nodeState, c, parent *node) (*node, bool, error) {
	bad := func(format string, a ...any) (*node, bool, error) {
		return nil, false, fmt.Errorf("%w: "+format, append([]any{sched.ErrBadState}, a...)...)
	}
	if st.Weight <= 0 {
		return bad("class %q weight %v", st.Name, st.Weight)
	}
	switch {
	case c == nil && parent == nil && (st.Leaf || st.Active):
		return bad("root class cannot be a leaf or active")
	case c == nil:
		c = &node{name: st.Name, parent: parent, flow: st.Flow}
		if st.Leaf {
			c.kind = kindLeafFlow
		}
	case st.Name != c.name:
		return bad("state class %q does not match tree class %q", st.Name, c.name)
	case st.Leaf:
		return bad("state class %q is a flow leaf but tree class is structural", st.Name)
	}
	// Weights load from the state, like every other field.
	c.weight = st.Weight
	c.active, c.curStart, c.lastFinish, c.serial = st.Active, st.CurStart, st.LastFinish, st.Serial
	c.heapIdx = -1
	c.v, c.maxFinish, c.serialSrc = st.V, st.MaxFinish, st.SerialSrc

	if c.kind == kindDisc || c.kind == kindLeafDisc {
		if st.Disc != c.discName {
			return bad("state class %q discipline %q does not match tree's %q", st.Name, st.Disc, c.discName)
		}
		fresh, err := sched.NewDiscipline(c.discName, rs.h.cfg)
		if err != nil {
			return nil, false, err
		}
		snap, ok := fresh.(sched.Snapshotter)
		if !ok {
			return bad("class %q discipline %q does not support snapshots", c.name, c.discName)
		}
		if len(st.Env) == 0 {
			return bad("class %q has no discipline envelope", st.Name)
		}
		if err := liveops.Restore(st.Env, snap); err != nil {
			return nil, false, fmt.Errorf("hier: class %q: %w", c.name, err)
		}
		c.disc = fresh
		c.poolOK = c.kind == kindDisc && sched.PoolSafeScheduler(fresh)
	} else if st.Disc != "" || len(st.Flows) > 0 {
		return bad("state class %q has discipline %q but tree class is not discipline-backed; restore into a tree built with a matching structure", st.Name, st.Disc)
	}

	content := false
	switch c.kind {
	case kindLeafFlow:
		if len(st.Children) > 0 {
			return bad("leaf class %q has children", st.Name)
		}
		if _, dup := rs.h.leaves[st.Flow]; dup {
			return bad("flow %d attached twice", st.Flow)
		}
		if st.Fifo != nil {
			if st.Fifo.Flow != st.Flow {
				return bad("leaf %q FIFO carries flow %d", st.Name, st.Fifo.Flow)
			}
			if err := c.fifo.RestoreState(&rs.h.chunks, *st.Fifo); err != nil {
				return nil, false, err
			}
			for _, it := range st.Fifo.Items {
				rs.maxSerial = max(rs.maxSerial, it.Serial)
			}
			rs.total += len(st.Fifo.Items)
			content = true
		}
		rs.h.leaves[st.Flow] = c
	case kindLeafDisc:
		if len(st.Children) > 0 {
			return bad("sink class %q has children", st.Name)
		}
		n := c.disc.Len()
		rs.total += n
		content = n > 0
		for i, f := range st.Flows {
			if i > 0 && f <= st.Flows[i-1] {
				return bad("sink %q flow ids not ascending at %d", st.Name, f)
			}
			if _, dup := rs.h.leaves[f]; dup {
				return bad("flow %d attached twice", f)
			}
			rs.h.leaves[f] = c
		}
		// The routing must name exactly the flows the discipline holds:
		// AddFlow and RemoveFlow keep the two in step.
		if fl, ok := c.disc.(sched.FlowLister); ok {
			listed := fl.ListFlows()
			same := len(listed) == len(st.Flows)
			for i := 0; same && i < len(listed); i++ {
				same = listed[i].Flow == st.Flows[i]
			}
			if !same {
				return bad("sink %q routes flows %v, its discipline holds %v", st.Name, st.Flows, listed)
			}
		}
	default:
		if len(st.Children) < len(c.children) {
			return bad("class %q has %d children in state, tree has %d", st.Name, len(st.Children), len(c.children))
		}
		var active []*node
		for i := range st.Children {
			cs := &st.Children[i]
			var ch *node
			if i < len(c.children) {
				ch = c.children[i]
			} else if rs.structured && !cs.Leaf {
				return bad("class %q has structural child %q beyond the tree's structure", st.Name, cs.Name)
			}
			ch, has, err := rs.load(cs, ch, c)
			if err != nil {
				return nil, false, err
			}
			if i >= len(c.children) {
				ch.idx = i
				c.children = append(c.children, ch)
			}
			content = content || has
			if c.kind == kindSFQ && ch.active {
				active = append(active, ch)
				if ch.serial > c.serialSrc {
					return bad("class %q serial %d above parent source %d", ch.name, ch.serial, c.serialSrc)
				}
			}
		}
		if c.kind == kindSFQ {
			sort.Slice(active, func(i, j int) bool { return childLess(active[i], active[j]) })
			for i, ch := range active {
				if i > 0 && !childLess(active[i-1], ch) {
					return bad("class %q children not in strict (curStart, serial) order", st.Name)
				}
				c.childHeap.push(ch)
			}
		} else if n := subtreeCount(c); n != c.disc.Len() {
			return bad("interior %q pseudo backlog %d != %d subtree packets", st.Name, c.disc.Len(), n)
		}
	}
	if parent != nil && parent.kind == kindSFQ && st.Active != content {
		return bad("class %q active flag disagrees with subtree content", st.Name)
	}
	return c, content, nil
}

// subtreeCount counts the real packets queued below c (flow-leaf FIFOs
// and sink disciplines).
func subtreeCount(c *node) int {
	switch c.kind {
	case kindLeafFlow:
		return c.queued()
	case kindLeafDisc:
		return c.disc.Len()
	}
	n := 0
	for _, ch := range c.children {
		n += subtreeCount(ch)
	}
	return n
}

// VisitQueued visits queued packets: flows ascending, FIFO within a flow.
// Flows routed into sink classes are visited through the sink discipline's
// own canonical order, filtered per flow.
func (h *Tree) VisitQueued(fn func(*Packet)) {
	ids := make([]int, 0, len(h.leaves))
	for f, c := range h.leaves {
		switch c.kind {
		case kindLeafFlow:
			if c.queued() > 0 {
				ids = append(ids, f)
			}
		case kindLeafDisc:
			if c.disc.QueuedBytes(f) > 0 {
				ids = append(ids, f)
			}
		}
	}
	sort.Ints(ids)
	for _, f := range ids {
		c := h.leaves[f]
		if c.kind == kindLeafFlow {
			c.fifo.VisitQueued(fn)
			continue
		}
		snap, ok := c.disc.(sched.Snapshotter)
		if !ok {
			continue
		}
		snap.VisitQueued(func(p *Packet) {
			if p.Flow == f {
				fn(p)
			}
		})
	}
}
