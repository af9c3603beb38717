package hier_test

import (
	"testing"

	"repro/internal/hier"
	"repro/internal/sched"
)

// FuzzHierTree differentially tests the generic tree layer against a
// naive replay model built from the same parsed spec: linear min-scan SFQ
// interiors carrying the same eq (4)-(5) arithmetic, and fresh
// registry-constructed discipline instances at discipline nodes (sinks and
// interiors). The production tree's indexed child heaps, pseudo-packet
// free list, pure-tree activation fast path, and byte bookkeeping must
// never change which packet is served — the model has none of those
// optimizations, so any divergence is a tree-layer bug. The op grammar is
// the usual byte-pair stream: data[0] picks the composition, then
// op = data[2i+1], arg = data[2i+2]:
//
//	op%5 == 0,1  enqueue on flow arg%4+1, length arg+1
//	op%5 == 2    dequeue from both, compare (flow, seq, length)
//	op%5 == 3    advance the clock by arg/10 seconds
//	op%5 == 4    long idle gap, then dequeue (busy-period end on both)

// fuzzSpecs are the compositions under test: heterogeneous sinks, a
// WiMAX-style class split, a tree of PIFOs, a nested SFQ level, a
// degenerate single sink, and a discipline interior over mixed children.
var fuzzSpecs = []string{
	"sfq(drr,edd)",
	"sfq(edd,scfq,drr,fifo)",
	"pifo-sfq(pifo-sfq,pifo-sfq)",
	"sfq(sfq(fifo,drr),edd)",
	"drr",
	"scfq(fifo,sfq(drr,edd),scfq)",
}

// modelNode is one node of the replay model.
type modelNode struct {
	weight   float64
	children []*modelNode
	disc     sched.Interface // non-nil for discipline interiors and sinks
	interior bool            // disc schedules children as pseudo-flows
	sfq      bool            // native SFQ interior

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
	return m
}

func (m *modelTree) buildNode(t *testing.T, sp *hier.Spec) *modelNode {
	n := &modelNode{weight: sp.Weight}
	if len(sp.Children) == 0 {
		var err error
		n.disc, err = sched.NewDiscipline(sp.Name, sched.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m.sinks = append(m.sinks, n)
		return n
	}
	if sp.Name == "sfq" {
		n.sfq = true
	} else {
		var err error
		n.disc, err = sched.NewDiscipline(sp.Name, sched.Config{})
		if err != nil {
			t.Fatal(err)
		}
		n.interior = true
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

// addFlow mirrors Tree.AddFlow's routing: flow -> sinks[flow%len(sinks)],
// recording the leaf-to-root chain for the enqueue walk.
func (m *modelTree) addFlow(t *testing.T, flow int, weight float64) {
	sink := m.sinks[((flow%len(m.sinks))+len(m.sinks))%len(m.sinks)]
	if err := sink.disc.AddFlow(flow, weight); err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("model sink not reachable from root")
	}
	m.path[flow] = chain
}

func (n *modelNode) hasContent() bool {
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
	if n.interior {
		lp, ok := n.disc.Dequeue(now)
		if !ok {
			panic("model interior has content but no pseudo-packet")
		}
		c := n.children[lp.Flow]
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
	if n.sfq {
		n.v = n.maxFinish
	} else {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		spec := fuzzSpecs[int(data[0])%len(fuzzSpecs)]
		sp, err := hier.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tree := mustTree(spec)
		model := buildModel(t, sp)

		const nf = 4
		for flow := 1; flow <= nf; flow++ {
			w := float64(flow * 100)
			if err := tree.AddFlow(flow, w); err != nil {
				t.Fatal(err)
			}
			model.addFlow(t, flow, w)
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
