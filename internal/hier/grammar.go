package hier

import (
	"fmt"
	"slices"
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
// A node with children is an interior, "sfq" natively and any other
// name as a discipline interior; a childless node is a sink, across which
// AddFlow routes flows by id. Examples:
//
//	sfq(drr,edd)                   SFQ root over a DRR sink and an EDD sink
//	sfq(edd*4,scfq*3,drr*2,fifo)   WiMAX-style UGS/rtPS/nrtPS/BE classes
//	pifo-sfq(pifo-sfq,pifo-sfq)    a tree of PIFOs, ranks computed at arrival
//	priority(fifo,scfq)            the FIFO sink's flows before the SCFQ sink's

// Composed names are user input (CLI flags, configs): cap the tree size
// well past any sane composition.
const (
	maxSpecNodes = 64
	maxSpecDepth = 8
)

// Spec describes a tree node, and through Children the whole tree: the
// one tree description, and Build the one builder. The grammar writes
// Name, Weight and Children. A node with class children is an interior:
// "sfq" natively, any other name a discipline interior. A node whose
// children are all flow leaves is an SFQ interior when named "sfq", else
// a sink holding those flows. A childless node is a sink too, except an
// "sfq" with a Class, an SFQ interior waiting for flows (hsfq's root).
type Spec struct {
	Name     string
	Weight   float64
	Children []*Spec

	// Class names the node, "root.0.1" (its path) when empty; a flow leaf
	// is "flow-<id>". IsFlow makes the node a leaf for flow Flow with share
	// Weight, and no Name or Children.
	Class  string
	IsFlow bool
	Flow   int
}

// String renders the spec canonically (weight 1 omitted, no spaces), the
// StateKind of a tree the grammar can write, so spellings restore alike.
func (sp *Spec) String() string {
	s := sp.Name
	if len(sp.Children) > 0 {
		parts := make([]string, len(sp.Children))
		for i, c := range sp.Children {
			parts[i] = c.String()
		}
		s += "(" + strings.Join(parts, ",") + ")"
	}
	if sp.Weight != 1 {
		s += "*" + strconv.FormatFloat(sp.Weight, 'g', -1, 64)
	}
	return s
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

// eat consumes b if it is next.
func (p *specParser) eat(b byte) bool {
	ok := p.pos < len(p.in) && p.in[p.pos] == b
	if ok {
		p.pos++
	}
	return ok
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
	for open := p.eat('('); open; open = p.eat(',') {
		c, err := p.spec(depth + 1)
		if err != nil {
			return nil, err
		}
		sp.Children = append(sp.Children, c)
	}
	if len(sp.Children) > 0 && !p.eat(')') {
		return nil, p.errf("expected ')' at offset %d", p.pos)
	}
	if p.eat('*') {
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

// Build builds the tree sp describes, every node discipline with cfg. The
// root's weight is ignored. A tree with class names or flow leaves, which
// the grammar cannot write, reports StateKind "core/hsfq", restoring into
// "hsfq".
func Build(sp *Spec, cfg sched.Config) (*Tree, error) {
	t := &Tree{spec: sp, kind: "core/hsfq", cfg: cfg, pure: true}
	if sp.inGrammar() {
		t.kind = "hier:" + sp.String()
	}
	var err error
	if t.root, err = t.add(nil, sp, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// inGrammar reports whether no node of sp has a class name or is a flow.
func (sp *Spec) inGrammar() bool {
	return sp.Class == "" && !sp.IsFlow && !slices.ContainsFunc(sp.Children, func(c *Spec) bool { return !c.inGrammar() })
}

// kind is the node kind sp describes; see Spec.
func (sp *Spec) kind() nodeKind {
	switch {
	case sp.IsFlow:
		return kindLeafFlow
	case sp.Name == "sfq" && (len(sp.Children) > 0 || sp.Class != ""):
		return kindSFQ
	case slices.ContainsFunc(sp.Children, func(c *Spec) bool { return !c.IsFlow }):
		return kindDisc
	}
	return kindLeafDisc
}

// FC is eq (65) over the tree: from the link's FC parameters and every
// node's maximum packet length lmax, each node's virtual server's, with a
// child's weight read as its reserved rate (a level's should not sum past
// its parent's rate).
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
	if err == nil {
		var t *Tree
		if t, err = Build(sp, cfg); err == nil {
			return t, nil
		}
	}
	return nil, err
}

func init() {
	// The open-ended family: any "hier:<spec>" name.
	sched.RegisterFallback(func(name string, _ sched.Config) (sched.Factory, bool) {
		spec, ok := strings.CutPrefix(name, "hier:")
		if !ok {
			return nil, false
		}
		return func(cfg sched.Config) (sched.Interface, error) { return buildSpec(spec, cfg) }, true
	})

	// Canonical compositions, registered by name so they enumerate in
	// sched.Names() and ride the conformance matrix.
	for _, spec := range []string{
		"sfq(drr,edd)",
		"sfq(edd,scfq,drr,fifo)",
		"pifo-sfq(pifo-sfq,pifo-sfq)",
		"priority(fifo,scfq)",
	} {
		sched.Register("hier:"+spec, func(cfg sched.Config) (sched.Interface, error) {
			return buildSpec(spec, cfg)
		})
	}
}
