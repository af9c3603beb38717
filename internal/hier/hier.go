// Package hier is the scheduler-tree layer: any registered discipline can
// be an interior, scheduling its children as pseudo-flows (weight = the
// child's share), or a sink scheduling real flows, the nodes talking
// through sched.Interface. It generalizes the Section 3 hierarchical SFQ
// (the registry's "hsfq") to compositions such as SFQ over DRR and EDD
// sinks or a tree of PIFOs. A tree is one Spec, built by Build. An SFQ
// interior is a sched.HeadSFQ over its children as pseudo-flows (eqs 4–5);
// any other interior sees one pseudo-packet per real packet arriving in a
// child's subtree; a flow leaf is the flow's record in the tree's one
// sched.FlowTable, holding its FIFO. Every attached flow is such a record,
// whose Class names its leaf or sink: an Enqueue costs one lookup, a
// Dequeue none. DESIGN.md §17 has the details.
package hier

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sched"
)

// Packet aliases the shared packet type.
type Packet = sched.Packet

// nodeKind is a node's role: SFQ or other interior, flow leaf, or sink.
type nodeKind uint8

const (
	kindSFQ nodeKind = iota
	kindDisc
	kindLeafFlow
	kindLeafDisc
)

// Tree is a link-sharing tree; a sched.Reconfigurable and Snapshotter.
type Tree struct {
	root   *node
	flows  sched.FlowTable // every attached flow; a flow leaf's record holds its FIFO
	owners []*node         // by Flow.Class: the flow leaves and sinks
	free   []int32         // owner slots of removed flow leaves
	chunks sched.ChunkPool // the flow leaves' FIFOs
	seq    uint64          // leaf FIFO push serial (assert bookkeeping only)
	total  int
	last   float64
	busy   bool // a packet is in service at the link

	spec *Spec        // what Build built; a restore builds it again
	kind string       // the StateKind (see Build)
	cfg  sched.Config // what node disciplines are built with

	pure   bool             // no kindDisc: an Enqueue stops at an active node
	sinks  []*node          // in build order, across which AddFlow routes flows
	pseudo sched.PacketPool // pseudo-packets that pool-safe interiors popped
}

// node is one class in the link-sharing tree.
type node struct {
	name     string
	parent   *node
	children []*node
	idx      int // position among siblings = pseudo-flow id at a disc parent
	kind     nodeKind
	slot     int32 // a flow leaf's or sink's index in Tree.owners

	// pf is the node's pseudo-flow record at an SFQ parent, lp its logical
	// packet there (Payload: the node; VirtualStart, Seq: its start tag and
	// serial). pf.Weight is the node's weight whatever its parent.
	pf sched.Flow
	lp Packet

	q        *sched.HeadSFQ  // kindSFQ
	rec      *sched.Flow     // kindLeafFlow: the flow's record
	disc     sched.Interface // kindDisc, kindLeafDisc, by registry name discName
	discName string
	poolOK   bool // disc's popped pseudo-packets may be recycled
}

// V returns the root's virtual time (sched.VirtualTimer): its HeadSFQ's,
// or its discipline's when that has one.
func (h *Tree) V() float64 {
	if h.root.kind == kindSFQ {
		return h.root.q.V
	}
	if vt, ok := h.root.disc.(sched.VirtualTimer); ok {
		return vt.V()
	}
	return 0
}

// positive is sched's test for a weight: finite and > 0 (not NaN, +Inf).
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// add makes sp's node under parent (nil: the root), then its children: the
// one node constructor, for Build, AddFlow, and RestoreState, which passes
// st, the node's snapshot state (see load and loadChildren). A flow leaf
// under a sink is routed into it and returns the sink.
func (h *Tree) add(parent *node, sp *Spec, st *nodeState) (*node, error) {
	c := &node{name: sp.Class, parent: parent, kind: sp.kind()}
	c.pf.Weight, c.lp.Payload = sp.Weight, c
	switch {
	case sp.IsFlow && parent == nil:
		return nil, fmt.Errorf("hier: the root cannot be flow %d", sp.Flow)
	case sp.IsFlow:
		c.name = fmt.Sprintf("flow-%d", sp.Flow)
	case parent == nil:
		c.name, c.pf.Weight = cmp.Or(c.name, "root"), 1
	case c.name == "":
		c.name = fmt.Sprintf("%s.%d", parent.name, len(parent.children))
	}
	what := fmt.Sprintf("class %q", c.name) // for error messages
	if sp.IsFlow {
		what = fmt.Sprintf("flow %d", sp.Flow)
	}
	if c.kind == kindSFQ {
		c.q = new(sched.HeadSFQ)
	}
	if st != nil {
		if err := c.load(st, len(sp.Children)); err != nil {
			return nil, err
		}
	}
	var err error
	switch {
	case !positive(c.pf.Weight):
		return nil, fmt.Errorf("%w: %s weight %v", sched.ErrBadWeight, what, c.pf.Weight)
	case sp.IsFlow && parent.kind == kindDisc:
		return nil, fmt.Errorf("hier: interior %q cannot hold %s", parent.name, what)
	case sp.IsFlow && (sp.Name != "" || len(sp.Children) > 0):
		return nil, fmt.Errorf("hier: %s cannot carry a discipline or children", what)
	case sp.IsFlow && parent.kind == kindLeafDisc:
		if err = parent.disc.AddFlow(sp.Flow, c.pf.Weight); err == nil {
			_, err = h.attach(sp.Flow, c.pf.Weight, parent)
		}
		return parent, err
	case sp.IsFlow:
		c.rec, err = h.attach(sp.Flow, c.pf.Weight, h.own(c))
	case c.kind != kindSFQ:
		c.disc, err = sched.NewDiscipline(sp.Name, h.cfg)
		c.discName = sp.Name
		if c.kind == kindDisc {
			c.poolOK, h.pure = sched.PoolSafeScheduler(c.disc), false
		} else {
			h.sinks = append(h.sinks, h.own(c))
		}
	}
	if err != nil {
		return nil, err
	}
	if parent != nil {
		c.idx = len(parent.children)
		if parent.kind == kindDisc && st == nil {
			if err := parent.disc.AddFlow(c.idx, c.pf.Weight); err != nil {
				return nil, err
			}
		}
		parent.children = append(parent.children, c)
	}
	for i, cs := range sp.Children {
		var cst *nodeState
		if st != nil {
			cst = &st.Children[i]
		}
		if _, err := h.add(c, cs, cst); err != nil {
			return nil, err
		}
	}
	if st != nil {
		return c, h.loadChildren(c, len(sp.Children), st)
	}
	return c, nil
}

// own gives a flow leaf or a sink its slot in h.owners, and returns it.
func (h *Tree) own(c *node) *node {
	if n := len(h.free); n > 0 {
		c.slot, h.free = h.free[n-1], h.free[:n-1]
		h.owners[c.slot] = c
	} else {
		c.slot, h.owners = int32(len(h.owners)), append(h.owners, c)
	}
	return c
}

// attach registers flow in the tree's table, held by its leaf or sink.
func (h *Tree) attach(flow int, weight float64, owner *node) (*sched.Flow, error) {
	if h.owner(flow) != nil {
		return nil, fmt.Errorf("hier: flow %d already attached", flow)
	}
	if err := h.flows.Add(flow, weight); err != nil {
		return nil, err
	}
	rec := h.flows.Record(flow)
	rec.Class = owner.slot
	return rec, nil
}

// owner returns the flow leaf or sink holding flow, or nil.
func (h *Tree) owner(flow int) *node {
	if rec := h.flows.Get(flow); rec != nil {
		return h.owners[rec.Class]
	}
	return nil
}

// Sink returns the discipline of the sink flow is routed into, or nil. It
// reaches what a weight cannot carry, e.g. EDD's AddFlowDeadline.
func (h *Tree) Sink(flow int) sched.Interface {
	if c := h.owner(flow); c != nil && c.kind == kindLeafDisc {
		return c.disc
	}
	return nil
}

// AddFlow routes flow across the sinks by id or, without sinks, adds its
// leaf under the root; a re-add updates its weight, as SetWeight does, and
// is refused for a draining flow. A sink does not know the tree drains the
// flow, so the tree checks before the sink is asked.
func (h *Tree) AddFlow(flow int, weight float64) error {
	if c := h.owner(flow); c != nil {
		if c.kind != kindLeafDisc {
			return h.SetWeight(flow, weight)
		}
		if h.flows.Drains().Draining(flow) {
			return fmt.Errorf("%w: %d", sched.ErrFlowDraining, flow)
		}
		return c.disc.AddFlow(flow, weight)
	}
	parent := h.root
	if n := len(h.sinks); n > 0 {
		parent = h.sinks[((flow%n)+n)%n]
	}
	_, err := h.add(parent, &Spec{IsFlow: true, Flow: flow, Weight: weight}, nil)
	return err
}

// RemoveFlow detaches an idle flow: its record, and its leaf or its
// routing into a sink (the sink stays).
func (h *Tree) RemoveFlow(flow int) error {
	c := h.owner(flow)
	switch {
	case c == nil:
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	case c.kind == kindLeafDisc:
		if err := c.disc.RemoveFlow(flow); err != nil {
			return err
		}
		return h.flows.Remove(flow)
	}
	// An idle leaf's FIFO holds no chunk: nothing goes back to the pool.
	if err := h.flows.Remove(flow); err != nil {
		return err
	}
	c.parent.children = slices.DeleteFunc(c.parent.children, func(x *node) bool { return x == c })
	h.owners[c.slot], h.free = nil, append(h.free, c.slot)
	return nil
}

// Enqueue adds p to its flow's leaf or sink and walks to the root: at an
// SFQ parent an idle child's logical packet is activated (eq 4), at a
// discipline interior a pseudo-packet for the child is pushed.
func (h *Tree) Enqueue(now float64, p *Packet) error {
	if now < h.last {
		return sched.ErrTimeWentBack
	}
	h.last = now
	rec, err := h.flows.Lookup(p)
	if err != nil {
		return err
	}
	leaf := h.owners[rec.Class]
	if leaf.kind == kindLeafDisc {
		if err := leaf.disc.Enqueue(now, p); err != nil {
			return err
		}
	} else {
		h.seq++
		rec.FlowQ.Push(&h.chunks, 0, 0, h.seq, p)
	}
	h.total++
	for c := leaf; c.parent != nil; c = c.parent {
		par := c.parent
		switch {
		case par.kind == kindDisc:
			lp := h.pseudo.Get()
			lp.Flow, lp.Length, lp.Arrival = c.idx, p.Length, now
			if err := par.disc.Enqueue(now, lp); err != nil {
				panic(fmt.Sprintf("hier: interior %q rejected pseudo-packet: %v", par.name, err))
			}
		case c.pf.Len() == 0:
			par.q.Activate(&c.pf, &c.lp)
		case h.pure:
			return nil
		}
	}
	return nil
}

// Dequeue serves the tree from the root (see serve). The packet handed out
// last is in service until the next call, so only a Dequeue that finds
// the tree empty ends the root's busy period, as in SFQ.
func (h *Tree) Dequeue(now float64) (p *Packet, ok bool) {
	if now > h.last {
		h.last = now
	}
	if ok = h.root.hasContent(); ok {
		h.busy = true
		p = h.serve(h.root, now)
		h.total--
	} else if h.busy {
		h.busy = false
		h.idleNode(h.root, now)
	}
	if !h.flows.Drains().Empty() {
		h.finalizeDrains()
	}
	return p, ok
}

// hasContent reports whether the node's subtree holds any packet.
func (c *node) hasContent() bool {
	switch c.kind {
	case kindLeafFlow:
		return c.rec.Len() > 0
	case kindSFQ:
		return c.q.Len() > 0
	}
	return c.disc.Len() > 0
}

// serve pops the next packet from n's subtree, which must have one: an
// SFQ interior serves its least start tag child and re-keys it with the
// length sent (eq 5), another interior pops its discipline for the child.
func (h *Tree) serve(n *node, now float64) *Packet {
	var c *node
	switch n.kind {
	case kindLeafFlow:
		return n.rec.Pop(&h.chunks)
	case kindSFQ:
		c = n.q.Head().Payload.(*node)
	default:
		lp, ok := n.disc.Dequeue(now)
		if !ok {
			panic(fmt.Sprintf("hier: class %q has content but no packet", n.name))
		}
		if n.kind == kindLeafDisc {
			return lp
		}
		c = n.children[lp.Flow]
		if n.poolOK {
			h.pseudo.Put(lp)
		}
	}
	p := h.serve(c, now)
	more := c.hasContent()
	if n.kind == kindSFQ {
		n.q.Served(&c.pf, &c.lp, p.Length, more)
	}
	if !more {
		h.idleNode(c, now)
	}
	return p
}

// idleNode ends a node's busy period when its subtree empties (the root's
// at the empty Dequeue): an SFQ interior's v jumps to its max finish tag,
// a discipline gets an empty Dequeue.
func (h *Tree) idleNode(c *node, now float64) {
	switch c.kind {
	case kindSFQ:
		c.q.Idle()
	case kindDisc, kindLeafDisc:
		c.disc.Dequeue(now)
	}
}

// Len returns the number of queued packets across the whole tree.
func (h *Tree) Len() int { return h.total }

// QueuedBytes returns the bytes queued for flow, in its leaf or sink.
func (h *Tree) QueuedBytes(flow int) float64 {
	if c := h.owner(flow); c != nil && c.kind == kindLeafDisc {
		return c.disc.QueuedBytes(flow)
	}
	return h.flows.QueuedBytes(flow)
}

// PacketPoolSafe reports whether no sink retains dequeued packets
// (interiors hold only pseudo-packets).
func (h *Tree) PacketPoolSafe() bool {
	for _, c := range h.sinks {
		if !sched.PoolSafeScheduler(c.disc) {
			return false
		}
	}
	return true
}
