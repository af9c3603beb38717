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
// Pure SFQ-of-SFQs trees — the core.HSFQ instance — serialize to exactly
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
// The tree writes its nodes straight from the classes (appendNode); this
// struct is what a restore reads them into.
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
	// raw span of the tree's bytes. Flows lists the real flows routed into
	// a sink node (ascending); the routing is tree state, not discipline
	// state.
	Disc  string `json:"disc,omitempty"`
	Env   []byte `json:"env,omitempty"`
	Flows []int  `json:"flows,omitempty"`
}

var nodeKeys = []string{
	"name", "weight", "leaf", "flow", "active", "curStart", "lastFinish", "serial",
	"v", "maxFinish", "serialSrc", "fifo", "children", "disc", "env", "flows",
}

func (st *nodeState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(nodeKeys); o.Next(); {
		switch o.Key() {
		case "name":
			st.Name = r.String()
		case "weight":
			st.Weight = r.Float()
		case "leaf":
			st.Leaf = r.Bool()
		case "flow":
			st.Flow = r.Int()
		case "active":
			st.Active = r.Bool()
		case "curStart":
			st.CurStart = r.Float()
		case "lastFinish":
			st.LastFinish = r.Float()
		case "serial":
			st.Serial = r.Uint()
		case "v":
			st.V = r.Float()
		case "maxFinish":
			st.MaxFinish = r.Float()
		case "serialSrc":
			st.SerialSrc = r.Uint()
		case "fifo":
			st.Fifo = new(sched.FlowQState)
			st.Fifo.DecodeJSON(r)
		case "children":
			statecodec.Slice(r, &st.Children, (*nodeState).decodeJSON)
		case "disc":
			st.Disc = r.String()
		case "env":
			st.Env = r.Raw()
		case "flows":
			statecodec.Ints(r, &st.Flows)
		}
	}
}

type treeState struct {
	Last     float64   `json:"last"`
	Busy     bool      `json:"busy"`
	Total    int       `json:"total"`
	Seq      uint64    `json:"seq"`
	Root     nodeState `json:"root"`
	Draining []int     `json:"draining,omitempty"`
}

// treeKeys includes "bytes", the per-flow byte table trees once kept
// beside their leaves' counts: still read, and skipped.
var treeKeys = []string{"last", "busy", "total", "seq", "bytes", "root", "draining"}

func (st *treeState) decodeJSON(r *statecodec.Reader) {
	for o := r.Object(treeKeys); o.Next(); {
		switch o.Key() {
		case "last":
			st.Last = r.Float()
		case "busy":
			st.Busy = r.Bool()
		case "total":
			st.Total = r.Int()
		case "seq":
			st.Seq = r.Uint()
		case "bytes":
			r.Raw()
		case "root":
			st.Root.decodeJSON(r)
		case "draining":
			statecodec.Ints(r, &st.Draining)
		}
	}
}

// decode reads data as one whole tree state. Every failure wraps
// sched.ErrBadState.
func (st *treeState) decode(data []byte) error {
	r := statecodec.NewReader(data)
	st.decodeJSON(&r)
	if err := r.Done(); err != nil {
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
	w := statecodec.NewWriter(b)
	w.BeginObject()
	w.Key("last").Float(h.last)
	w.Key("busy").Bool(h.busy)
	w.Key("total").Int(h.total)
	w.Key("seq").Uint(h.seq)
	w.Key("root")
	h.appendNode(&w, h.root)
	if draining := h.draining.Flows(); len(draining) != 0 {
		w.Key("draining")
		statecodec.AppendInts(&w, draining)
	}
	w.EndObject()
	return w.Bytes()
}

// appendNode writes c's subtree as a nodeState, children in creation
// order.
func (h *Tree) appendNode(w *statecodec.Writer, c *Node) {
	w.BeginObject()
	w.Key("name").String(c.name)
	w.Key("weight").Float(c.weight)
	if c.kind == kindLeafFlow {
		w.Key("leaf").Bool(true)
	}
	if c.flow != 0 {
		w.Key("flow").Int(c.flow)
	}
	if c.active {
		w.Key("active").Bool(true)
	}
	if c.curStart != 0 {
		w.Key("curStart").Float(c.curStart)
	}
	if c.lastFinish != 0 {
		w.Key("lastFinish").Float(c.lastFinish)
	}
	if c.serial != 0 {
		w.Key("serial").Uint(c.serial)
	}
	if c.v != 0 {
		w.Key("v").Float(c.v)
	}
	if c.maxFinish != 0 {
		w.Key("maxFinish").Float(c.maxFinish)
	}
	if c.serialSrc != 0 {
		w.Key("serialSrc").Uint(c.serialSrc)
	}
	switch c.kind {
	case kindLeafFlow:
		if c.queued() > 0 {
			fifo := c.fifo.CaptureState()
			fifo.Flow = c.flow
			w.Key("fifo")
			fifo.AppendJSON(w)
		}
		w.EndObject()
		return
	case kindDisc, kindLeafDisc:
		snap, ok := c.disc.(sched.Snapshotter)
		if !ok {
			w.Fail(fmt.Errorf("hier: class %q discipline %q does not support snapshots", c.name, c.discName))
			w.EndObject()
			return
		}
		if c.kind == kindDisc {
			h.appendChildren(w, c)
		}
		if c.discName != "" {
			w.Key("disc").String(c.discName)
		}
		w.Key("env").Append(func(b []byte) ([]byte, error) {
			out, err := liveops.AppendSnapshotAt(b, 0, snap)
			if err != nil {
				err = fmt.Errorf("hier: class %q: %w", c.name, err)
			}
			return out, err
		})
		if c.kind == kindLeafDisc {
			var flows []int
			for f, leaf := range h.leaves {
				if leaf == c {
					flows = append(flows, f)
				}
			}
			if len(flows) != 0 {
				sort.Ints(flows)
				w.Key("flows")
				statecodec.AppendInts(w, flows)
			}
		}
	default:
		h.appendChildren(w, c)
	}
	w.EndObject()
}

// appendChildren writes c's children, omitted when there are none.
func (h *Tree) appendChildren(w *statecodec.Writer, c *Node) {
	if len(c.children) == 0 {
		return
	}
	w.Key("children").BeginArray()
	for _, ch := range c.children {
		h.appendNode(w, ch)
	}
	w.EndArray()
}

// RestoreState loads state into a freshly constructed, empty tree. Two
// shapes are accepted, matching the two ways trees are built:
//
//   - A bare NewHSFQ tree (no pre-built structure): the legacy path —
//     the class tree is rebuilt from the state, exactly as the
//     pre-refactor HSFQ restore did. States containing discipline nodes
//     are refused here, since the tree would not know how to construct
//     their disciplines.
//   - A structured tree (grammar- or linkshare-built, interior classes
//     and sinks already in place): the state is walked against the
//     existing nodes — names, discipline names, and topology must match
//     — node scheduling state is loaded in place, per-parent child heaps
//     are rebuilt (active children pushed in their (curStart, serial)
//     strict total order — a sorted push sequence is a valid heap and
//     pop order is total anyway), and each discipline-backed node's
//     discipline is rebuilt fresh from its factory and restored from its
//     embedded envelope.
func (h *Tree) RestoreState(data []byte) error {
	if len(h.leaves) != 0 || h.total != 0 {
		return fmt.Errorf("%w: restore into non-empty scheduler", sched.ErrBadState)
	}
	structured := len(h.root.children) != 0 || h.root.kind != kindSFQ
	var st treeState
	if err := st.decode(data); err != nil {
		return err
	}
	rs := &treeRestore{h: h}
	var root *Node
	var err error
	if structured {
		root = h.root
		_, err = rs.match(&st.Root, root, nil)
	} else {
		root, _, err = rs.node(&st.Root, nil)
	}
	if err != nil {
		return err
	}
	if rs.total != st.Total {
		return fmt.Errorf("%w: hsfq total %d != %d queued packets", sched.ErrBadState, st.Total, rs.total)
	}
	if st.Seq < rs.maxSerial {
		return fmt.Errorf("%w: hsfq push serial %d below max item serial %d", sched.ErrBadState, st.Seq, rs.maxSerial)
	}
	for i, f := range st.Draining {
		if i > 0 && f <= st.Draining[i-1] {
			return fmt.Errorf("%w: draining flows not ascending at %d", sched.ErrBadState, f)
		}
		if _, ok := h.leaves[f]; !ok {
			return fmt.Errorf("%w: draining flow %d not attached", sched.ErrBadState, f)
		}
	}
	h.draining.SetFlows(st.Draining)
	h.root = root
	h.last, h.busy, h.total, h.seq = st.Last, st.Busy, st.Total, st.Seq
	return nil
}

// treeRestore accumulates cross-tree restore bookkeeping.
type treeRestore struct {
	h         *Tree
	total     int
	maxSerial uint64
}

// node rebuilds one class subtree (the legacy path), returning the class
// and whether its subtree holds any packet (to cross-check the active
// flags, which drive the child heaps and hence the schedule).
func (rs *treeRestore) node(st *nodeState, parent *Node) (*Node, bool, error) {
	if st.Disc != "" || len(st.Flows) > 0 {
		return nil, false, fmt.Errorf("%w: state has discipline node %q; restore into a tree built with a matching structure", sched.ErrBadState, st.Name)
	}
	if st.Weight <= 0 {
		return nil, false, fmt.Errorf("%w: class %q weight %v", sched.ErrBadState, st.Name, st.Weight)
	}
	c := &Node{
		name: st.Name, weight: st.Weight, parent: parent,
		flow:   st.Flow,
		active: st.Active, curStart: st.CurStart, lastFinish: st.LastFinish,
		serial: st.Serial, heapIdx: -1,
		v: st.V, maxFinish: st.MaxFinish, serialSrc: st.SerialSrc,
	}
	if st.Leaf {
		c.kind = kindLeafFlow
	}
	if parent == nil && (st.Leaf || st.Active) {
		return nil, false, fmt.Errorf("%w: root class cannot be a leaf or active", sched.ErrBadState)
	}
	content := false
	if st.Leaf {
		if len(st.Children) > 0 {
			return nil, false, fmt.Errorf("%w: leaf class %q has children", sched.ErrBadState, st.Name)
		}
		if _, dup := rs.h.leaves[st.Flow]; dup {
			return nil, false, fmt.Errorf("%w: flow %d attached twice", sched.ErrBadState, st.Flow)
		}
		if st.Fifo != nil {
			if err := rs.leafFifo(st, c); err != nil {
				return nil, false, err
			}
			content = true
		}
		rs.h.leaves[st.Flow] = c
	} else {
		var active []*Node
		for i := range st.Children {
			ch, has, err := rs.node(&st.Children[i], c)
			if err != nil {
				return nil, false, err
			}
			ch.idx = i
			c.children = append(c.children, ch)
			if has {
				content = true
			}
			if ch.active {
				active = append(active, ch)
				if ch.serial > c.serialSrc {
					return nil, false, fmt.Errorf("%w: class %q serial %d above parent source %d", sched.ErrBadState, ch.name, ch.serial, c.serialSrc)
				}
			}
		}
		if err := rebuildHeap(c, active, st.Name); err != nil {
			return nil, false, err
		}
	}
	if parent != nil && st.Active != content {
		return nil, false, fmt.Errorf("%w: class %q active flag disagrees with subtree content", sched.ErrBadState, st.Name)
	}
	return c, content, nil
}

// leafFifo restores a flow leaf's FIFO and updates the serial/total
// bookkeeping.
func (rs *treeRestore) leafFifo(st *nodeState, c *Node) error {
	if st.Fifo.Flow != st.Flow {
		return fmt.Errorf("%w: leaf %q FIFO carries flow %d", sched.ErrBadState, st.Name, st.Fifo.Flow)
	}
	if err := c.fifo.RestoreState(&rs.h.chunks, *st.Fifo); err != nil {
		return err
	}
	for _, it := range st.Fifo.Items {
		if it.Serial > rs.maxSerial {
			rs.maxSerial = it.Serial
		}
	}
	rs.total += len(st.Fifo.Items)
	return nil
}

// rebuildHeap pushes the active children in their (curStart, serial)
// strict total order, validating strictness.
func rebuildHeap(c *Node, active []*Node, name string) error {
	sort.Slice(active, func(i, j int) bool { return childLess(active[i], active[j]) })
	for i, ch := range active {
		if i > 0 && !childLess(active[i-1], ch) {
			return fmt.Errorf("%w: class %q children not in strict (curStart, serial) order", sched.ErrBadState, name)
		}
		c.childHeap.push(ch)
	}
	return nil
}

// match walks the state against an existing structured tree: structural
// children (interiors, disc nodes, sinks) must correspond one-to-one by
// name and kind; flow-leaf children in the state are created fresh (they
// are dynamic — attached by AddFlow — so a fresh constructor does not
// have them).
func (rs *treeRestore) match(st *nodeState, c *Node, parent *Node) (bool, error) {
	if st.Weight <= 0 {
		return false, fmt.Errorf("%w: class %q weight %v", sched.ErrBadState, st.Name, st.Weight)
	}
	if st.Name != c.name {
		return false, fmt.Errorf("%w: state class %q does not match tree class %q", sched.ErrBadState, st.Name, c.name)
	}
	if st.Leaf {
		return false, fmt.Errorf("%w: state class %q is a flow leaf but tree class is structural", sched.ErrBadState, st.Name)
	}
	// Weights load from the state, like every other field.
	c.weight = st.Weight
	c.active, c.curStart, c.lastFinish = st.Active, st.CurStart, st.LastFinish
	c.serial = st.Serial
	c.heapIdx = -1
	c.v, c.maxFinish, c.serialSrc = st.V, st.MaxFinish, st.SerialSrc

	switch c.kind {
	case kindDisc, kindLeafDisc:
		if st.Disc != c.discName {
			return false, fmt.Errorf("%w: state class %q discipline %q does not match tree's %q", sched.ErrBadState, st.Name, st.Disc, c.discName)
		}
		fresh, err := c.mkDisc()
		if err != nil {
			return false, err
		}
		snap, ok := fresh.(sched.Snapshotter)
		if !ok {
			return false, fmt.Errorf("%w: class %q discipline %q does not support snapshots", sched.ErrBadState, c.name, c.discName)
		}
		if len(st.Env) == 0 {
			return false, fmt.Errorf("%w: class %q has no discipline envelope", sched.ErrBadState, st.Name)
		}
		if err := liveops.Restore(st.Env, snap); err != nil {
			return false, fmt.Errorf("hier: class %q: %w", c.name, err)
		}
		c.disc = fresh
		c.poolOK = c.kind == kindDisc && sched.PoolSafeScheduler(fresh)
	default:
		if st.Disc != "" {
			return false, fmt.Errorf("%w: state class %q has discipline %q but tree class is a native interior", sched.ErrBadState, st.Name, st.Disc)
		}
	}

	content := false
	switch c.kind {
	case kindLeafDisc:
		if len(st.Children) > 0 {
			return false, fmt.Errorf("%w: sink class %q has children", sched.ErrBadState, st.Name)
		}
		n := c.disc.Len()
		rs.total += n
		content = n > 0
		for i, f := range st.Flows {
			if i > 0 && f <= st.Flows[i-1] {
				return false, fmt.Errorf("%w: sink %q flow ids not ascending at %d", sched.ErrBadState, st.Name, f)
			}
			if _, dup := rs.h.leaves[f]; dup {
				return false, fmt.Errorf("%w: flow %d attached twice", sched.ErrBadState, f)
			}
			rs.h.leaves[f] = c
		}
	case kindDisc, kindSFQ:
		if len(st.Children) < len(c.children) {
			return false, fmt.Errorf("%w: class %q has %d children in state, tree has %d", sched.ErrBadState, st.Name, len(st.Children), len(c.children))
		}
		var active []*Node
		for i := range st.Children {
			cs := &st.Children[i]
			var ch *Node
			if i < len(c.children) {
				ch = c.children[i]
				has, err := rs.match(cs, ch, c)
				if err != nil {
					return false, err
				}
				if has {
					content = true
				}
			} else {
				// Trailing flow leaves are dynamic: create them.
				if !cs.Leaf {
					return false, fmt.Errorf("%w: class %q has structural child %q beyond the tree's structure", sched.ErrBadState, st.Name, cs.Name)
				}
				var has bool
				var err error
				ch, has, err = rs.node(cs, c)
				if err != nil {
					return false, err
				}
				ch.idx = i
				c.children = append(c.children, ch)
				if has {
					content = true
				}
			}
			if c.kind == kindSFQ && ch.active {
				active = append(active, ch)
				if ch.serial > c.serialSrc {
					return false, fmt.Errorf("%w: class %q serial %d above parent source %d", sched.ErrBadState, ch.name, ch.serial, c.serialSrc)
				}
			}
		}
		if c.kind == kindSFQ {
			if err := rebuildHeap(c, active, st.Name); err != nil {
				return false, err
			}
		} else if n := subtreeCount(c); n != c.disc.Len() {
			return false, fmt.Errorf("%w: interior %q pseudo backlog %d != %d subtree packets", sched.ErrBadState, st.Name, c.disc.Len(), n)
		}
	}
	if parent != nil && parent.kind == kindSFQ && st.Active != content {
		return false, fmt.Errorf("%w: class %q active flag disagrees with subtree content", sched.ErrBadState, st.Name)
	}
	return content, nil
}

// subtreeCount counts the real packets queued below c (flow-leaf FIFOs
// and sink disciplines).
func subtreeCount(c *Node) int {
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
