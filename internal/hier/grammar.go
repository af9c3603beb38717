package hier

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/server"
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

// Spec describes one node of a scheduler tree, and through Children the
// whole tree: it is the one tree description, and Build the one builder.
// The grammar writes Name, Weight and Children; Class and flow leaves are
// API fields it cannot write.
//
// A node with class children is an interior: "sfq" natively, any other
// name as a discipline interior. A node whose children are all flow
// leaves is a native SFQ interior when its name is "sfq", and a sink
// otherwise, its flows routed into the sink's discipline. A childless
// node is a sink too, except a named "sfq" class, which is an SFQ
// interior waiting for flows (the Section 3 scheduler's root).
type Spec struct {
	Name     string
	Weight   float64
	Children []*Spec

	// Class names the node; empty means its position path from the root
	// ("root.0.1"), deterministic, so two trees built from one spec
	// snapshot alike. A flow leaf is named "flow-<id>" whatever Class says.
	Class string
	// IsFlow makes the spec a leaf for flow Flow with share Weight. It
	// carries no Name and no Children.
	IsFlow bool
	Flow   int
}

// String renders the canonical form of the spec: minimal weights (omitted
// when 1), no whitespace. Build uses it for the StateKind of a tree the
// grammar can write, so equivalent spellings restore interchangeably.
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

// Build builds the tree sp describes. cfg is handed to every node
// discipline (so e.g. WithQuantum reaches a DRR sink); its Tree field is
// cleared first, so a nested bare "hier" cannot recurse into itself. The
// root's weight is ignored: the root is the whole link. A tree the grammar
// can write reports StateKind "hier:<canonical spec>"; one with class
// names or flow leaves reports "core/hsfq", the Section 3 scheduler's
// kind, so its snapshots restore into a bare "hsfq".
func Build(sp *Spec, cfg sched.Config) (*Tree, error) {
	cfg.Tree = ""
	t := &Tree{leaves: make(map[int]*node), kind: "core/hsfq", cfg: cfg, pure: true}
	if sp.inGrammar() {
		t.kind = "hier:" + sp.String()
	}
	root, err := t.add(nil, sp)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// inGrammar reports whether the grammar can write sp: no node of it has a
// class name or is a flow leaf.
func (sp *Spec) inGrammar() bool {
	if sp.Class != "" || sp.IsFlow {
		return false
	}
	for _, c := range sp.Children {
		if !c.inGrammar() {
			return false
		}
	}
	return true
}

// kind is the node kind sp describes; see Spec.
func (sp *Spec) kind() nodeKind {
	switch {
	case sp.IsFlow:
		return kindLeafFlow
	case sp.Name == "sfq" && (len(sp.Children) > 0 || sp.Class != ""):
		return kindSFQ
	}
	for _, c := range sp.Children {
		if !c.IsFlow {
			return kindDisc
		}
	}
	return kindLeafDisc
}

// FC is eq (65) over the tree: given the link's FC parameters and the
// maximum packet length lmax of every node, it returns the FC parameters
// of each node's virtual server, the root's being the link's. A child's
// weight is read as its reserved rate, so a level's weights should not sum
// past its parent's rate for the bounds to mean anything.
func (sp *Spec) FC(link server.FCParams, lmax float64) map[*Spec]server.FCParams {
	fc := map[*Spec]server.FCParams{sp: link}
	var walk func(*Spec)
	walk = func(n *Spec) {
		sumLmax := float64(len(n.Children)) * lmax
		for _, c := range n.Children {
			fc[c] = qos.SFQThroughputFC(fc[n], c.Weight, lmax, sumLmax)
			walk(c)
		}
	}
	walk(sp)
	return fc
}

// buildSpec is ParseSpec then Build: the registry's route from a name.
func buildSpec(spec string, cfg sched.Config) (sched.Interface, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	t, err := Build(sp, cfg)
	if err != nil {
		return nil, err
	}
	return t, nil
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
				return buildSpec(cfg.Tree, cfg)
			}, true
		}
		if strings.HasPrefix(name, "hier:") {
			spec := strings.TrimPrefix(name, "hier:")
			return func(cfg sched.Config) (sched.Interface, error) {
				return buildSpec(spec, cfg)
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
			return buildSpec(spec, cfg)
		})
	}
}
