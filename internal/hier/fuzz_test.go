package hier_test

import (
	"testing"

	"repro/internal/hier"
	"repro/internal/sched"
)

// FuzzHierTree differentially tests the generic tree layer against a
// naive replay model built from the same spec: linear min-scan SFQ
// interiors carrying the same eq (4)-(5) arithmetic, strict-priority
// interiors that scan their children in order for the first with a
// packet, and fresh registry-constructed discipline instances at the other
// discipline nodes (sinks and interiors). The production tree's indexed
// child heaps, pseudo-packet free list, pure-tree activation fast path,
// and byte bookkeeping must never change which packet is served — the
// model has none of those optimizations, so any divergence is a
// tree-layer bug. The op grammar is
// the usual byte-pair stream: data[0] picks the composition, then
// op = data[2i+1], arg = data[2i+2]:
//
//	op%5 == 0,1  enqueue on flow arg%4+1, length arg+1
//	op%5 == 2    dequeue from both, compare (flow, seq, length)
//	op%5 == 3    advance the clock by arg/10 seconds
//	op%5 == 4    long idle gap, then dequeue (busy-period end on both)

// fuzzSpecs are the compositions under test: heterogeneous sinks, a
// WiMAX-style class split, a tree of PIFOs, a nested SFQ level, a
// degenerate single sink, and a discipline interior over mixed children,
// all parsed from the grammar; then three written as Spec values with
// class names and flow leaves: Example 3's tree, composed-tree's sinks
// with their flows listed, and a named SFQ class of flow leaves under a
// discipline interior beside a sink; last, strict priority over a sink, an
// SFQ subtree and another sink.
var fuzzSpecs = func() []*hier.Spec {
	parse := func(s string) *hier.Spec {
		sp, err := hier.ParseSpec(s)
		if err != nil {
			panic(err)
		}
		return sp
	}
	var specs []*hier.Spec
	for _, s := range []string{
		"sfq(drr,edd)",
		"sfq(edd,scfq,drr,fifo)",
		"pifo-sfq(pifo-sfq,pifo-sfq)",
		"sfq(sfq(fifo,drr),edd)",
		"drr",
		"scfq(fifo,sfq(drr,edd),scfq)",
	} {
		specs = append(specs, parse(s))
	}
	flow := func(f int) *hier.Spec { return flowLeaf(f, fuzzWeight(f)) }
	return append(specs,
		&hier.Spec{Name: "sfq", Children: []*hier.Spec{
			{Name: "sfq", Class: "A", Weight: 2, Children: []*hier.Spec{flow(3), flow(4)}},
			flow(2),
		}},
		&hier.Spec{Name: "sfq", Children: []*hier.Spec{
			{Name: "edd", Class: "ugs", Weight: 4, Children: []*hier.Spec{flow(1)}},
			{Name: "scfq", Class: "rtps", Weight: 3, Children: []*hier.Spec{flow(2)}},
			{Name: "drr", Class: "nrtps", Weight: 2, Children: []*hier.Spec{flow(3), flow(4)}},
			{Name: "fifo", Class: "be", Weight: 1},
		}},
		&hier.Spec{Name: "drr", Children: []*hier.Spec{
			{Name: "sfq", Class: "x", Weight: 2, Children: []*hier.Spec{flow(1), flow(2)}},
			{Name: "fifo", Weight: 1},
		}},
		parse("priority(fifo,sfq(drr,edd),scfq)"),
	)
}()

// fuzzWeight is flow f's weight, in the spec or through AddFlow.
func fuzzWeight(f int) float64 { return float64(f * 100) }

// modelNode is one node of the replay model.
type modelNode struct {
	weight   float64
	children []*modelNode
	disc     sched.Interface // non-nil for discipline interiors and sinks
	interior bool            // disc schedules children as pseudo-flows
	sfq      bool            // native SFQ interior
	prio     bool            // strict priority: the first child with a packet

	// Child-side SFQ state (meaningful when the parent is an SFQ interior).
	active               bool
	curStart, lastFinish float64
	serial               uint64

	// Interior SFQ state.
	v, maxFinish float64
	serialSrc    uint64
}

// modelTree replays the spec with linear scans and no packet recycling.
type modelTree struct {
	root  *modelNode
	sinks []*modelNode
	path  map[int][]*modelNode // flow -> leaf-to-root chain (sink first)
	total int
	busy  bool
}

func buildModel(t *testing.T, sp *hier.Spec) *modelTree {
	m := &modelTree{path: make(map[int][]*modelNode)}
	m.root = m.buildNode(t, sp)
	// Flows the spec lists get their chains once the tree is whole.
	for flow, n := range m.path {
		m.record(t, flow, n[0])
	}
	return m
}

// buildNode makes sp's model node. A flow leaf is a one-flow FIFO: with
// one flow, FIFO order is the leaf's arrival order. Flow ids the spec
// lists are noted in m.path with the node holding them.
func (m *modelTree) buildNode(t *testing.T, sp *hier.Spec) *modelNode {
	n := &modelNode{weight: sp.Weight}
	name := sp.Name
	classes := 0
	for _, cs := range sp.Children {
		if !cs.IsFlow {
			classes++
		}
	}
	switch {
	case sp.IsFlow:
		name = "fifo"
	case sp.Name == "sfq" && (len(sp.Children) > 0 || sp.Class != ""):
		n.sfq = true
	case sp.Name == "priority" && classes > 0:
		n.prio = true
	case classes > 0:
		n.interior = true
	}
	if !n.sfq && !n.prio {
		var err error
		n.disc, err = sched.NewDiscipline(name, sched.Config{})
		if err != nil {
			t.Fatal(err)
		}
	}
	switch {
	case sp.IsFlow:
		n.hold(t, m, sp.Flow, sp.Weight)
	case !n.sfq && !n.interior && !n.prio:
		m.sinks = append(m.sinks, n)
		for _, cs := range sp.Children {
			n.hold(t, m, cs.Flow, cs.Weight)
		}
		return n
	}
	for i, cs := range sp.Children {
		c := m.buildNode(t, cs)
		n.children = append(n.children, c)
		if n.interior {
			if err := n.disc.AddFlow(i, c.weight); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// hold registers flow on n's discipline and notes n as its holder.
func (n *modelNode) hold(t *testing.T, m *modelTree, flow int, weight float64) {
	if err := n.disc.AddFlow(flow, weight); err != nil {
		t.Fatal(err)
	}
	m.path[flow] = []*modelNode{n}
}

// addFlow mirrors Tree.AddFlow's routing: flow -> sinks[flow%len(sinks)],
// or a leaf of its own at the root when there is no sink.
func (m *modelTree) addFlow(t *testing.T, flow int, weight float64) {
	if len(m.sinks) == 0 {
		leaf := &modelNode{weight: weight}
		var err error
		if leaf.disc, err = sched.NewDiscipline("fifo", sched.Config{}); err != nil {
			t.Fatal(err)
		}
		leaf.hold(t, m, flow, weight)
		m.root.children = append(m.root.children, leaf)
		m.record(t, flow, leaf)
		return
	}
	sink := m.sinks[((flow%len(m.sinks))+len(m.sinks))%len(m.sinks)]
	sink.hold(t, m, flow, weight)
	m.record(t, flow, sink)
}

// record notes the holder-to-root chain of flow for the enqueue walk.
func (m *modelTree) record(t *testing.T, flow int, sink *modelNode) {
	var chain []*modelNode
	var walk func(n *modelNode) bool
	walk = func(n *modelNode) bool {
		if n == sink {
			chain = append(chain, n)
			return true
		}
		for _, c := range n.children {
			if walk(c) {
				chain = append(chain, n)
				return true
			}
		}
		return false
	}
	if !walk(m.root) {
		t.Fatal("model holder not reachable from root")
	}
	m.path[flow] = chain
}

func (n *modelNode) hasContent() bool {
	if n.prio {
		return n.first() != nil
	}
	if n.sfq {
		for _, c := range n.children {
			if c.active {
				return true
			}
		}
		return false
	}
	return n.disc.Len() > 0
}

// first is a strict-priority interior's first child with a packet, or nil.
func (n *modelNode) first() *modelNode {
	for _, c := range n.children {
		if c.hasContent() {
			return c
		}
	}
	return nil
}

func (n *modelNode) childIdx(c *modelNode) int {
	for i, x := range n.children {
		if x == c {
			return i
		}
	}
	return -1
}

func (m *modelTree) enqueue(t *testing.T, now float64, p *sched.Packet) {
	chain := m.path[p.Flow]
	if err := chain[0].disc.Enqueue(now, p); err != nil {
		t.Fatalf("model sink enqueue: %v", err)
	}
	m.total++
	for i := 0; i+1 < len(chain); i++ {
		c, par := chain[i], chain[i+1]
		if par.prio {
			continue
		}
		if par.interior {
			lp := &sched.Packet{Flow: par.childIdx(c), Length: p.Length, Arrival: now}
			if err := par.disc.Enqueue(now, lp); err != nil {
				t.Fatalf("model interior enqueue: %v", err)
			}
			continue
		}
		if c.active {
			continue
		}
		c.curStart = c.lastFinish
		if par.v > c.curStart {
			c.curStart = par.v
		}
		c.active = true
		par.serialSrc++
		c.serial = par.serialSrc
	}
}

func (m *modelTree) dequeue(now float64) (*sched.Packet, bool) {
	if !m.root.hasContent() {
		if m.busy {
			m.busy = false
			m.idle(m.root, now)
		}
		return nil, false
	}
	m.busy = true
	p := m.serve(m.root, now)
	m.total--
	return p, true
}

func (m *modelTree) serve(n *modelNode, now float64) *sched.Packet {
	if n.interior || n.prio {
		var c *modelNode
		if n.prio {
			c = n.first()
		} else {
			lp, ok := n.disc.Dequeue(now)
			if !ok {
				panic("model interior has content but no pseudo-packet")
			}
			c = n.children[lp.Flow]
		}
		p := m.serve(c, now)
		if !c.hasContent() {
			m.idle(c, now)
		}
		return p
	}
	if !n.sfq { // sink
		p, ok := n.disc.Dequeue(now)
		if !ok {
			panic("model sink has content but no packet")
		}
		return p
	}
	// Native SFQ interior: linear min-scan over active children by
	// (curStart, serial) — same order the indexed heap maintains.
	var c *modelNode
	for _, x := range n.children {
		if !x.active {
			continue
		}
		if c == nil || x.curStart < c.curStart ||
			(x.curStart == c.curStart && x.serial < c.serial) {
			c = x
		}
	}
	n.v = c.curStart
	p := m.serve(c, now)
	finish := c.curStart + p.Length/c.weight
	c.lastFinish = finish
	if finish > n.maxFinish {
		n.maxFinish = finish
	}
	if c.hasContent() {
		c.curStart = finish
	} else {
		c.active = false
		m.idle(c, now)
	}
	return p
}

func (m *modelTree) idle(n *modelNode, now float64) {
	switch {
	case n.sfq:
		n.v = n.maxFinish
	case !n.prio: // strict priority keeps no busy-period state
		n.disc.Dequeue(now)
	}
}

func FuzzHierTree(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 200, 2, 0, 1, 3, 2, 0, 2, 0})
	f.Add([]byte{1, 0, 1, 3, 50, 2, 0, 4, 0, 0, 7, 2, 0})
	f.Add([]byte{2, 0, 0, 1, 1, 1, 2, 3, 100, 2, 0, 4, 0, 0, 5, 2, 0})
	f.Add([]byte{3, 0, 3, 0, 6, 0, 9, 2, 0, 2, 0, 3, 40, 0, 2, 2, 0})
	f.Add([]byte{4, 0, 8, 2, 0, 4, 0})
	f.Add([]byte{5, 0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{6, 0, 2, 0, 3, 0, 1, 2, 0, 4, 0, 0, 0, 2, 0, 3, 9, 1, 2, 2, 0})
	f.Add([]byte{7, 0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 4, 0, 1, 2, 2, 0, 2, 0})
	f.Add([]byte{8, 0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 2, 0, 4, 0, 0, 5, 2, 0})
	f.Add([]byte{9, 0, 3, 0, 1, 0, 2, 0, 0, 2, 0, 0, 5, 0, 6, 2, 0, 2, 0, 4, 0, 0, 7, 1, 4, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		sp := fuzzSpecs[int(data[0])%len(fuzzSpecs)]
		tree := mustBuild(sp)
		model := buildModel(t, sp)

		// Flows 1..nf: those the spec lists are in both already; AddFlow
		// attaches the rest.
		const nf = 4
		for flow := 1; flow <= nf; flow++ {
			if model.path[flow] != nil {
				continue
			}
			if err := tree.AddFlow(flow, fuzzWeight(flow)); err != nil {
				t.Fatal(err)
			}
			model.addFlow(t, flow, fuzzWeight(flow))
		}

		now := 0.0
		seq := make(map[int]int64)
		step := func(label string) {
			p, ok := tree.Dequeue(now)
			mp, mok := model.dequeue(now)
			if ok != mok {
				t.Fatalf("%s at %v: tree ok=%v, model ok=%v", label, now, ok, mok)
			}
			if ok && (p.Flow != mp.Flow || p.Seq != mp.Seq || p.Length != mp.Length) {
				t.Fatalf("%s at %v: tree served flow %d seq %d len %v, model flow %d seq %d len %v",
					label, now, p.Flow, p.Seq, p.Length, mp.Flow, mp.Seq, mp.Length)
			}
			if tree.Len() != model.total {
				t.Fatalf("%s: tree Len %d, model %d", label, tree.Len(), model.total)
			}
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 5 {
			case 0, 1:
				flow := int(arg)%nf + 1
				seq[flow]++
				length := float64(arg) + 1
				if err := tree.Enqueue(now, &sched.Packet{Flow: flow, Seq: seq[flow], Length: length}); err != nil {
					t.Fatalf("tree enqueue: %v", err)
				}
				model.enqueue(t, now, &sched.Packet{Flow: flow, Seq: seq[flow], Length: length})
			case 2:
				step("dequeue")
			case 3:
				now += float64(arg) / 10
			case 4:
				now += 1000 // busy-period end on the next empty dequeue
				step("idle dequeue")
			}
		}
		// Drain both and verify conservation plus per-flow byte agreement.
		for n := tree.Len(); n >= 0; n-- {
			now++
			step("drain")
		}
		if tree.Len() != 0 || model.total != 0 {
			t.Fatalf("drain left tree=%d model=%d packets", tree.Len(), model.total)
		}
		for flow := 1; flow <= nf; flow++ {
			if b := tree.QueuedBytes(flow); b != 0 {
				t.Fatalf("flow %d QueuedBytes = %v after drain", flow, b)
			}
		}
	})
}
