package hier

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// This file is the composed-name grammar of the tree layer:
//
//	spec   := name [ "(" spec { "," spec } ")" ] [ "*" weight ]
//	name   := [a-z0-9_+-]+        (a registered discipline name)
//	weight := positive decimal     (default 1)
//
// A node with children is an interior — "sfq" natively (the Section 3
// algebra, no pseudo-packet layer), any other name as a discipline
// interior scheduling its children as pseudo-flows. A childless node is a
// sink: a leaf discipline scheduling real flows, which AddFlow routes
// across sinks by flow id. Examples:
//
//	sfq(drr,edd)                   SFQ root over a DRR sink and an EDD sink
//	sfq(edd*4,scfq*3,drr*2,fifo)   WiMAX-style UGS/rtPS/nrtPS/BE classes
//	pifo-sfq(pifo-sfq,pifo-sfq)    a tree of PIFOs, rank functions at
//	                               every node (arrival-computed ranks)
//
// The registry resolves the whole family through sched.RegisterFallback:
// "hier:<spec>" carries the spec in the name, and the bare name "hier"
// reads it from Config.Tree (sched.WithTree). A few canonical
// compositions are additionally registered by name so they enumerate in
// sched.Names() and the conformance matrix.

// Grammar guard rails: composed names are user input (CLI flags, configs),
// so cap the tree size well past any sane composition.
const (
	maxSpecNodes = 64
	maxSpecDepth = 8
)

// Spec is one parsed node of a composition: a discipline name, a share
// weight, and the child specs (nil for a sink).
type Spec struct {
	Name     string
	Weight   float64
	Children []*Spec
}

// String renders the canonical form of the spec: minimal weights (omitted
// when 1), no whitespace. NewTree uses it for the tree's StateKind, so
// equivalent spellings restore interchangeably.
func (sp *Spec) String() string {
	var b strings.Builder
	sp.write(&b)
	return b.String()
}

func (sp *Spec) write(b *strings.Builder) {
	b.WriteString(sp.Name)
	if len(sp.Children) > 0 {
		b.WriteByte('(')
		for i, c := range sp.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			c.write(b)
		}
		b.WriteByte(')')
	}
	if sp.Weight != 1 {
		b.WriteByte('*')
		b.WriteString(strconv.FormatFloat(sp.Weight, 'g', -1, 64))
	}
}

// ParseSpec parses the grammar above.
func ParseSpec(s string) (*Spec, error) {
	p := &specParser{in: s}
	sp, err := p.spec(1)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.in) {
		return nil, p.errf("trailing input at %q", p.in[p.pos:])
	}
	return sp, nil
}

type specParser struct {
	in    string
	pos   int
	nodes int
}

func (p *specParser) errf(format string, args ...any) error {
	return fmt.Errorf("%w: tree spec %q: %s", sched.ErrBadConfig, p.in, fmt.Sprintf(format, args...))
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '+' || c == '-'
}

func (p *specParser) spec(depth int) (*Spec, error) {
	if depth > maxSpecDepth {
		return nil, p.errf("deeper than %d levels", maxSpecDepth)
	}
	if p.nodes++; p.nodes > maxSpecNodes {
		return nil, p.errf("more than %d nodes", maxSpecNodes)
	}
	start := p.pos
	for p.pos < len(p.in) && isNameChar(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, p.errf("expected a discipline name at offset %d", start)
	}
	sp := &Spec{Name: p.in[start:p.pos], Weight: 1}
	if p.pos < len(p.in) && p.in[p.pos] == '(' {
		p.pos++
		for {
			c, err := p.spec(depth + 1)
			if err != nil {
				return nil, err
			}
			sp.Children = append(sp.Children, c)
			if p.pos < len(p.in) && p.in[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if p.pos >= len(p.in) || p.in[p.pos] != ')' {
			return nil, p.errf("expected ')' at offset %d", p.pos)
		}
		p.pos++
	}
	if p.pos < len(p.in) && p.in[p.pos] == '*' {
		p.pos++
		start := p.pos
		for p.pos < len(p.in) && (p.in[p.pos] >= '0' && p.in[p.pos] <= '9' || p.in[p.pos] == '.') {
			p.pos++
		}
		w, err := strconv.ParseFloat(p.in[start:p.pos], 64)
		if err != nil || w <= 0 {
			return nil, p.errf("bad weight %q for %q", p.in[start:p.pos], sp.Name)
		}
		sp.Weight = w
	}
	return sp, nil
}

// NewTree builds a tree from a grammar spec. cfg is handed to every node
// discipline (so e.g. WithQuantum reaches a DRR sink); its Tree field is
// cleared first, so a nested bare "hier" cannot recurse into itself.
func NewTree(spec string, cfg sched.Config) (*Tree, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg.Tree = ""
	t := &Tree{
		leaves: make(map[int]*Node),
		kind:   "hier:" + sp.String(),
		pure:   true,
	}
	switch {
	case len(sp.Children) == 0:
		// A single sink: the whole link is one leaf discipline. Degenerate
		// but legal — "hier:drr" is DRR with the tree layer's snapshot and
		// reconfiguration surfaces.
		disc, mk, err := discFactory(sp.Name, cfg)
		if err != nil {
			return nil, err
		}
		t.root = &Node{
			name: "root", weight: 1, heapIdx: -1,
			kind: kindLeafDisc, disc: disc, discName: sp.Name, mkDisc: mk,
		}
		t.sinks = append(t.sinks, t.root)
		return t, nil
	case sp.Name == "sfq":
		t.root = &Node{name: "root", weight: 1, heapIdx: -1}
	default:
		disc, mk, err := discFactory(sp.Name, cfg)
		if err != nil {
			return nil, err
		}
		t.root = &Node{
			name: "root", weight: 1, heapIdx: -1,
			kind: kindDisc, disc: disc, discName: sp.Name, mkDisc: mk,
			poolOK: sched.PoolSafeScheduler(disc),
		}
		t.pure = false
	}
	if err := t.buildChildren(t.root, sp, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// buildChildren realizes sp's children under par. Node names are the
// position path from the root ("root.0.1"), which is deterministic, so
// snapshots of two trees built from the same spec match structurally.
func (t *Tree) buildChildren(par *Node, sp *Spec, cfg sched.Config) error {
	for i, cs := range sp.Children {
		name := fmt.Sprintf("%s.%d", par.name, i)
		var (
			c   *Node
			err error
		)
		switch {
		case len(cs.Children) == 0:
			c, err = t.NewSinkClass(par, name, cs.Weight, cs.Name, cfg)
		case cs.Name == "sfq":
			c, err = t.NewClass(par, name, cs.Weight)
		default:
			c, err = t.NewDiscClass(par, name, cs.Weight, cs.Name, cfg)
		}
		if err != nil {
			return err
		}
		if len(cs.Children) > 0 {
			if err := t.buildChildren(c, cs, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

func init() {
	// The open-ended family: any "hier:<spec>" name, and the bare "hier"
	// carrying its spec in Config.Tree.
	sched.RegisterFallback(func(name string, _ sched.Config) (sched.Factory, bool) {
		if name == "hier" {
			return func(cfg sched.Config) (sched.Interface, error) {
				if cfg.Tree == "" {
					return nil, fmt.Errorf("%w: hier requires a tree spec (sched.WithTree)", sched.ErrBadConfig)
				}
				return NewTree(cfg.Tree, cfg)
			}, true
		}
		if strings.HasPrefix(name, "hier:") {
			spec := strings.TrimPrefix(name, "hier:")
			return func(cfg sched.Config) (sched.Interface, error) {
				return NewTree(spec, cfg)
			}, true
		}
		return nil, false
	})

	// Canonical compositions, registered by name so they enumerate in
	// sched.Names() and ride the conformance matrix: a heterogeneous
	// SFQ-over-(DRR,EDD) split, a WiMAX-style four-class tree
	// (UGS≈EDD, rtPS≈SCFQ, nrtPS≈DRR, BE≈FIFO), and a tree of PIFOs
	// with a rank function at every node.
	for _, spec := range []string{
		"sfq(drr,edd)",
		"sfq(edd,scfq,drr,fifo)",
		"pifo-sfq(pifo-sfq,pifo-sfq)",
	} {
		spec := spec
		sched.Register("hier:"+spec, func(cfg sched.Config) (sched.Interface, error) {
			return NewTree(spec, cfg)
		})
	}
}
