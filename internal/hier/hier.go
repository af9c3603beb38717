// Package hier is the generic hierarchical-composition layer: a tree of
// scheduler nodes in which any registered discipline — a rank function or
// not — can serve as an interior node (scheduling its children as
// pseudo-flows, one pseudo-flow per child, weight = the child's configured
// share) or as a leaf (scheduling real flows), with the inter-node
// contract expressed entirely through sched.Interface.
//
// The layer generalizes the Section 3 hierarchical SFQ of the paper: the
// registry's "hsfq" is the SFQ-of-SFQs instance of this tree (its node
// kind below is kindSFQ, the native interior that reproduces eqs (4)–(5)
// bit-identically to the pre-refactor implementation), while arbitrary
// compositions — SFQ over DRR and EDD subtrees, WiMAX-style UGS/rtPS/
// nrtPS/BE service classes, or a tree of PIFOs in the Sivaraman et al.
// model — are built from the same Tree machinery. Every tree is
// described by one Spec, written by hand or parsed from the grammar in
// grammar.go, and built by Build.
//
// Node kinds and their scheduling contract:
//
//   - kindSFQ: the native SFQ interior of Section 3. Start/finish tags
//     for child logical packets follow eqs (4)–(5), the finish tag is
//     computed at dequeue time with the actually transmitted length, and
//     the node's virtual time jumps to its max finish tag when its busy
//     period ends. No per-packet state is kept: a child's position in the
//     parent's heap is derived from its subtree head.
//   - kindDisc: an interior scheduled by an arbitrary discipline. Every
//     real packet arriving in the subtree pushes one pseudo-packet
//     (Flow = child index, Length = real length) on the node's
//     discipline at arrival time; a dequeue pops the discipline to pick
//     the child and recurses. The pseudo backlog per child always equals
//     the child subtree's real packet count, so the discipline's own
//     work-conservation and fairness properties apply to the children as
//     if they were flows. (Rank-function disciplines at such nodes are
//     exactly the tree-of-PIFOs model: ranks are computed at arrival,
//     per level.)
//   - kindLeafFlow: one real flow's packet FIFO (the classic HSFQ leaf).
//   - kindLeafDisc: a leaf discipline scheduling real flows directly —
//     the sink nodes real traffic is routed into in composed trees.
package hier

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Packet aliases the shared packet type.
type Packet = sched.Packet

// nodeKind discriminates the four node roles. See the package comment.
type nodeKind uint8

const (
	kindSFQ nodeKind = iota
	kindDisc
	kindLeafFlow
	kindLeafDisc
)

// Tree is a hierarchical scheduler: a link-sharing tree whose interior
// nodes split their service among their children and whose leaves hold
// real traffic. It implements sched.Interface (plus Reconfigurable and
// Snapshotter).
type Tree struct {
	root   *node
	leaves map[int]*node // flow id -> leaf node (flow leaf or disc sink)
	total  int
	last   float64
	busy   bool // a packet is in service at the link
	chunks sched.ChunkPool
	seq    uint64 // leaf FIFO push serial (assert bookkeeping only)

	draining sched.DrainSet

	// kind is the StateKind this tree reports (see Build); cfg is what
	// its node disciplines are built with, again at snapshot restore.
	kind string
	cfg  sched.Config

	// pure is true while the tree contains no kindDisc interior, so the
	// legacy early-stop activation walk is exact (an active node implies
	// every ancestor already knows about pending work).
	pure bool

	// sinks are the kindLeafDisc nodes in build order; when present,
	// AddFlow routes flows across them round-robin by flow id instead of
	// attaching leaves under the root.
	sinks []*node

	// freePseudo recycles pseudo-packets popped from pool-safe interior
	// disciplines, keeping the steady-state hot path allocation-free.
	freePseudo []*Packet
}

// node is one class in the link-sharing tree. Interior nodes aggregate
// subclasses; leaf nodes hold real traffic.
type node struct {
	name   string
	weight float64
	parent *node
	idx    int // position among siblings = pseudo-flow id at a disc parent
	kind   nodeKind
	flow   int // valid when kindLeafFlow

	// State as a child of a kindSFQ parent.
	active     bool
	curStart   float64 // start tag of the head logical packet, valid when active
	lastFinish float64 // finish tag of the last logical packet scheduled at the parent
	heapIdx    int
	serial     uint64

	// State as a kindSFQ interior (SFQ over children).
	children  []*node
	childHeap childHeap
	v         float64
	maxFinish float64
	serialSrc uint64

	// State as a kindLeafFlow: the flow's packet FIFO, chunked over the
	// tree's shared pool. Leaf order is pure FIFO, so the FlowQ keys are
	// just the tree-wide push serial (which also keeps the schedassert
	// monotonicity check meaningful).
	fifo sched.FlowQ

	// State as a discipline-backed node (kindDisc, kindLeafDisc): the
	// discipline instance, its registry name, and whether pseudo-packets
	// popped from it may be recycled (kindDisc only).
	disc     sched.Interface
	discName string
	poolOK   bool
}

// V returns the root's system virtual time — the v(t) of the scheduler
// instance that serves the link itself (sched.VirtualTimer). For a
// discipline-backed root the inner discipline's virtual time is reported
// when it has one.
func (h *Tree) V() float64 {
	if h.root.kind == kindSFQ {
		return h.root.v
	}
	if vt, ok := h.root.disc.(sched.VirtualTimer); ok {
		return vt.V()
	}
	return 0
}

// positive is sched's test for a weight or a packet length: finite and
// > 0 (NaN and +Inf pass `x <= 0`).
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// add makes sp's node under parent (nil: sp is the root), then its
// children in order. It is the one node constructor: Build calls it for a
// whole spec and AddFlow for one flow leaf. A flow leaf under a sink is
// routed into the sink's discipline and returns the sink. A discipline
// interior parent is told about its new pseudo-flow at once, so the child
// is schedulable the moment it exists.
func (h *Tree) add(parent *node, sp *Spec) (*node, error) {
	if parent == nil && sp.IsFlow {
		return nil, fmt.Errorf("hier: the root cannot be flow %d", sp.Flow)
	}
	c := &node{name: sp.Class, weight: sp.Weight, parent: parent, kind: sp.kind(), heapIdx: -1}
	switch {
	case sp.IsFlow:
		c.name, c.flow = fmt.Sprintf("flow-%d", sp.Flow), sp.Flow
	case parent == nil:
		c.weight = 1
		if c.name == "" {
			c.name = "root"
		}
	case c.name == "":
		c.name = fmt.Sprintf("%s.%d", parent.name, len(parent.children))
	}
	what := func() string { // for error messages only
		if sp.IsFlow {
			return fmt.Sprintf("flow %d", sp.Flow)
		}
		return fmt.Sprintf("class %q", c.name)
	}
	if !positive(c.weight) {
		return nil, fmt.Errorf("%w: %s weight %v", sched.ErrBadWeight, what(), c.weight)
	}
	if parent != nil {
		c.idx = len(parent.children)
		if parent.kind == kindDisc && sp.IsFlow {
			// A discipline interior schedules its child classes, not
			// flows: real traffic belongs in a sink or an SFQ class.
			return nil, fmt.Errorf("hier: interior %q cannot hold %s", parent.name, what())
		}
	}
	if sp.IsFlow {
		switch {
		case sp.Name != "" || len(sp.Children) > 0:
			return nil, fmt.Errorf("hier: %s cannot carry a discipline or children", what())
		case h.leaves[sp.Flow] != nil:
			return nil, fmt.Errorf("hier: flow %d already attached", sp.Flow)
		case h.draining.Draining(sp.Flow):
			return nil, fmt.Errorf("%w: %d", sched.ErrFlowDraining, sp.Flow)
		}
		if parent.kind == kindLeafDisc {
			if err := parent.disc.AddFlow(sp.Flow, c.weight); err != nil {
				return nil, err
			}
			h.leaves[sp.Flow] = parent
			return parent, nil
		}
		h.leaves[sp.Flow] = c
	} else if c.kind != kindSFQ {
		var err error
		if c.disc, err = sched.NewDiscipline(sp.Name, h.cfg); err != nil {
			return nil, err
		}
		c.discName = sp.Name
		if c.kind == kindDisc {
			c.poolOK = sched.PoolSafeScheduler(c.disc)
			h.pure = false
		} else {
			h.sinks = append(h.sinks, c)
		}
	}
	if parent != nil {
		if parent.kind == kindDisc {
			if err := parent.disc.AddFlow(c.idx, c.weight); err != nil {
				return nil, err
			}
		}
		parent.children = append(parent.children, c)
	}
	for _, cs := range sp.Children {
		if _, err := h.add(c, cs); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Sink returns the discipline of the sink class flow is routed into, or
// nil for a flow with a leaf of its own or none. It reaches what a weight
// cannot carry, e.g. EDD's AddFlowDeadline.
func (h *Tree) Sink(flow int) sched.Interface {
	if c := h.leaves[flow]; c != nil && c.kind == kindLeafDisc {
		return c.disc
	}
	return nil
}

// AddFlow attaches flow (sched.Interface). On trees with sink classes,
// flows are routed across the sinks by flow id; otherwise the flow becomes
// a leaf directly under the root. A re-add updates the weight in place —
// through the owning sink's discipline, or as SetWeight on a flow leaf —
// keeping the runtime's re-registration semantics.
func (h *Tree) AddFlow(flow int, weight float64) error {
	if c, ok := h.leaves[flow]; ok {
		if c.kind == kindLeafDisc {
			return c.disc.AddFlow(flow, weight)
		}
		return h.SetWeight(flow, weight)
	}
	parent := h.root
	if n := len(h.sinks); n > 0 {
		parent = h.sinks[((flow%n)+n)%n]
	}
	_, err := h.add(parent, &Spec{IsFlow: true, Flow: flow, Weight: weight})
	return err
}

// RemoveFlow detaches an idle flow.
func (h *Tree) RemoveFlow(flow int) error {
	c, ok := h.leaves[flow]
	if !ok {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	if c.kind == kindLeafDisc {
		// Discipline-backed class: detach the routing; the class stays.
		if err := c.disc.RemoveFlow(flow); err != nil {
			return err
		}
		delete(h.leaves, flow)
		return nil
	}
	if c.active || c.queued() > 0 {
		return fmt.Errorf("%w: %d", sched.ErrFlowBusy, flow)
	}
	// An idle leaf's FIFO holds no chunk: nothing goes back to the pool.
	p := c.parent
	for i, ch := range p.children {
		if ch == c {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	delete(h.leaves, flow)
	return nil
}

func (c *node) queued() int { return c.fifo.Len() }

// Enqueue adds p to its flow's leaf and walks the path to the root: at
// each native SFQ edge the child is activated if needed (assigning start
// tags per eq 4), and at each discipline-interior edge a pseudo-packet
// for the child is pushed so the interior discipline sees the arrival.
func (h *Tree) Enqueue(now float64, p *Packet) error {
	if now < h.last {
		return sched.ErrTimeWentBack
	}
	h.last = now
	leaf, ok := h.leaves[p.Flow]
	if !ok {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, p.Flow)
	}
	if !h.draining.Empty() && h.draining.Draining(p.Flow) {
		return fmt.Errorf("%w: %d", sched.ErrFlowDraining, p.Flow)
	}
	if !positive(p.Length) {
		return fmt.Errorf("%w: flow %d length %v", sched.ErrBadPacket, p.Flow, p.Length)
	}
	switch leaf.kind {
	case kindLeafDisc:
		if err := leaf.disc.Enqueue(now, p); err != nil {
			return err
		}
	default:
		h.seq++
		leaf.fifo.Push(&h.chunks, 0, 0, h.seq, p)
	}
	h.total++

	// Walk to the root. At SFQ edges, activate inactive children — once a
	// node is active its SFQ ancestors are necessarily aware of pending
	// work, so a pure tree stops at the first active node (the legacy
	// fast path). Discipline interiors have no activation state: they see
	// every arrival as a pseudo-packet, so the walk must keep climbing
	// past active nodes when such interiors may sit above.
	for c := leaf; c.parent != nil; c = c.parent {
		par := c.parent
		if par.kind == kindDisc {
			lp := h.getPseudo()
			lp.Flow = c.idx
			lp.Length = p.Length
			lp.Arrival = now
			if err := par.disc.Enqueue(now, lp); err != nil {
				panic(fmt.Sprintf("hier: interior %q rejected pseudo-packet: %v", par.name, err))
			}
			continue
		}
		if c.active {
			if h.pure {
				break
			}
			continue
		}
		c.curStart = math.Max(par.v, c.lastFinish)
		c.active = true
		par.serialSrc++
		c.serial = par.serialSrc
		par.childHeap.push(c)
	}
	return nil
}

// Dequeue recursively selects the next packet from the root: native SFQ
// interiors pick the minimum-start-tag child and update tags level by
// level (eq 5 with the transmitted packet's length), discipline interiors
// pop their own queue to pick the child. A Dequeue that finds the tree
// empty marks the end of the root's busy period: only then does the
// root's virtual time jump (step 2 of the algorithm) — the packet most
// recently handed out is still in service until the caller asks for the
// next one, exactly as in SFQ, so a flat tree is packet-for-packet
// identical to the SFQ scheduler.
func (h *Tree) Dequeue(now float64) (*Packet, bool) {
	if now > h.last {
		h.last = now
	}
	if !h.root.hasContent() {
		if h.busy {
			h.busy = false
			h.idleNode(h.root, now)
		}
		if !h.draining.Empty() {
			h.finalizeDrains()
		}
		return nil, false
	}
	h.busy = true
	p := h.serve(h.root, now)
	h.total--
	if !h.draining.Empty() {
		h.finalizeDrains()
	}
	return p, true
}

// hasContent reports whether the node's subtree holds any packet. For a
// sink the discipline's own length answers; a discipline
// interior's pseudo backlog equals its subtree's packet count by
// construction.
func (c *node) hasContent() bool {
	switch c.kind {
	case kindLeafFlow:
		return c.queued() > 0
	case kindSFQ:
		return c.childHeap.Len() > 0
	default:
		return c.disc.Len() > 0
	}
}

// serve pops the next packet from n's subtree. n must have content.
func (h *Tree) serve(n *node, now float64) *Packet {
	switch n.kind {
	case kindLeafFlow:
		return n.fifo.Pop(&h.chunks)
	case kindLeafDisc:
		p, ok := n.disc.Dequeue(now)
		if !ok {
			panic("core: active sink class has no packet")
		}
		return p
	case kindDisc:
		lp, ok := n.disc.Dequeue(now)
		if !ok {
			panic(fmt.Sprintf("hier: interior %q has content but no pseudo-packet", n.name))
		}
		c := n.children[lp.Flow]
		h.putPseudo(n, lp)
		p := h.serve(c, now)
		if !c.hasContent() {
			h.idleNode(c, now)
		}
		return p
	}

	// kindSFQ: the Section 3 interior, verbatim from the hand-written
	// HSFQ. v(t) at this node is the start tag of the child logical
	// packet in service (step 2 applied to the virtual server).
	c := n.childHeap.min()
	n.v = c.curStart
	p := h.serve(c, now)
	finish := c.curStart + p.Length/c.weight
	c.lastFinish = finish
	if finish > n.maxFinish {
		n.maxFinish = finish
	}
	if c.hasContent() {
		// The child stays backlogged: chain the next logical packet.
		// max(v, lastFinish) == lastFinish since v == curStart < finish.
		c.curStart = finish
		n.childHeap.fix(c)
	} else {
		n.childHeap.remove(c)
		c.active = false
		h.idleNode(c, now)
	}
	return p
}

// idleNode signals the end of a node's busy period, at the instant its
// subtree empties (or, for the root, at the empty Dequeue that ends the
// link's busy period). Native SFQ interiors jump their virtual time to
// the max finish tag served (step 2); discipline-backed nodes get an
// empty Dequeue so self-clocked disciplines perform their own
// busy-period-end bookkeeping. Flow leaves need nothing.
func (h *Tree) idleNode(c *node, now float64) {
	switch c.kind {
	case kindSFQ:
		c.v = c.maxFinish
	case kindDisc, kindLeafDisc:
		c.disc.Dequeue(now)
	}
}

// getPseudo takes a pseudo-packet from the free list or allocates one.
func (h *Tree) getPseudo() *Packet {
	if n := len(h.freePseudo); n > 0 {
		p := h.freePseudo[n-1]
		h.freePseudo[n-1] = nil
		h.freePseudo = h.freePseudo[:n-1]
		return p
	}
	return &Packet{}
}

// putPseudo recycles a pseudo-packet popped from n's discipline, when the
// discipline declares dequeued packets unreferenced (sched.PoolSafe).
func (h *Tree) putPseudo(n *node, p *Packet) {
	if n.poolOK {
		*p = Packet{}
		h.freePseudo = append(h.freePseudo, p)
	}
}

// Len returns the number of queued packets across the whole tree.
func (h *Tree) Len() int { return h.total }

// QueuedBytes returns the bytes queued for flow: its leaf's own count —
// the FIFO's, exactly zero when drained, or the sink discipline's.
func (h *Tree) QueuedBytes(flow int) float64 {
	switch leaf := h.leaves[flow]; {
	case leaf == nil:
		return 0
	case leaf.kind == kindLeafDisc:
		return leaf.disc.QueuedBytes(flow)
	default:
		return leaf.fifo.QueuedBytes()
	}
}

// PacketPoolSafe reports whether the tree retains no dequeued packets:
// true unless some sink class wraps a scheduler that is
// itself unsafe. Composite safety reflects the classes registered so far,
// so sample it after the tree is fully built. (Discipline interiors hold
// only pseudo-packets, which never leave the tree, so they cannot affect
// safety.)
func (h *Tree) PacketPoolSafe() bool {
	for _, c := range h.sinks {
		if !sched.PoolSafeScheduler(c.disc) {
			return false
		}
	}
	return true
}

// childHeap is a hand-rolled indexed min-heap of active children ordered
// by (curStart, serial) — start tag with FIFO tie-breaking on the parent's
// activation serial, which is unique per parent, so the minimum is a
// strict total order and the heap layout cannot affect the schedule. Its
// sifts move a hole rather than swapping.
type childHeap struct{ cs []*node }

func (ch *childHeap) Len() int { return len(ch.cs) }

func childLess(a, b *node) bool {
	if a.curStart != b.curStart {
		return a.curStart < b.curStart
	}
	return a.serial < b.serial
}

func (ch *childHeap) push(c *node) {
	ch.cs = append(ch.cs, c)
	ch.siftUp(len(ch.cs)-1, c)
}

func (ch *childHeap) min() *node { return ch.cs[0] }

func (ch *childHeap) fix(c *node) {
	i := c.heapIdx
	if i > 0 && childLess(c, ch.cs[(i-1)/2]) {
		ch.siftUp(i, c)
		return
	}
	ch.siftDown(i, c)
}

func (ch *childHeap) remove(c *node) {
	i := c.heapIdx
	c.heapIdx = -1
	n := len(ch.cs)
	last := ch.cs[n-1]
	ch.cs[n-1] = nil
	ch.cs = ch.cs[:n-1]
	if i == n-1 {
		return
	}
	if i > 0 && childLess(last, ch.cs[(i-1)/2]) {
		ch.siftUp(i, last)
		return
	}
	ch.siftDown(i, last)
}

func (ch *childHeap) siftUp(i int, c *node) {
	cs := ch.cs
	for i > 0 {
		parent := (i - 1) / 2
		if !childLess(c, cs[parent]) {
			break
		}
		cs[i] = cs[parent]
		cs[i].heapIdx = i
		i = parent
	}
	cs[i] = c
	c.heapIdx = i
}

func (ch *childHeap) siftDown(i int, c *node) {
	cs := ch.cs
	n := len(cs)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && childLess(cs[r], cs[child]) {
			child = r
		}
		if !childLess(cs[child], c) {
			break
		}
		cs[i] = cs[child]
		cs[i].heapIdx = i
		i = child
	}
	cs[i] = c
	c.heapIdx = i
}
