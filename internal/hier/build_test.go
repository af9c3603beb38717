package hier_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// spec3 is the Example 3 structure: root{A{C,D}, B}, with C, D and B as
// flows 3, 4 and 2.
func spec3() *hier.Spec {
	return &hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "sfq", Class: "A", Weight: 1, Children: []*hier.Spec{flowLeaf(3, 1), flowLeaf(4, 1)}},
		flowLeaf(2, 1),
	}}
}

// TestBuildValidation pins the error every malformed Spec produces,
// sentinel and message both: a misconfigured tree should fail loudly and
// precisely, and a reworded message should show up here.
func TestBuildValidation(t *testing.T) {
	root := func(children ...*hier.Spec) *hier.Spec { return &hier.Spec{Name: "sfq", Children: children} }
	cases := []struct {
		name     string
		spec     *hier.Spec
		sentinel error // errors.Is target, nil to skip
		want     string
	}{
		{
			name: "duplicate flow",
			spec: root(flowLeaf(1, 1), &hier.Spec{Name: "sfq", Class: "x", Weight: 1, Children: []*hier.Spec{flowLeaf(1, 1)}}),
			want: `hier: flow 1 already attached`,
		},
		{
			name: "flow leaf with children",
			spec: root(&hier.Spec{IsFlow: true, Flow: 1, Weight: 1, Children: []*hier.Spec{flowLeaf(2, 1)}}),
			want: `hier: flow 1 cannot carry a discipline or children`,
		},
		{
			name:     "zero flow weight",
			spec:     root(flowLeaf(1, 0)),
			sentinel: sched.ErrBadWeight,
			want:     `sched: weight must be positive: flow 1 weight 0`,
		},
		{
			name:     "negative class weight",
			spec:     root(&hier.Spec{Name: "sfq", Class: "agg", Weight: -2, Children: []*hier.Spec{flowLeaf(1, 1)}}),
			sentinel: sched.ErrBadWeight,
			want:     `sched: weight must be positive: class "agg" weight -2`,
		},
		{
			// A spec with no discipline name describes no node.
			name:     "empty tree",
			spec:     &hier.Spec{},
			sentinel: sched.ErrBadConfig,
			want:     `unknown scheduler ""`,
		},
		{
			name: "root as flow",
			spec: &hier.Spec{IsFlow: true, Flow: 1, Weight: 1},
			want: `hier: the root cannot be flow 1`,
		},
		{
			name:     "unknown discipline",
			spec:     root(&hier.Spec{Name: "nope", Class: "s", Weight: 1}),
			sentinel: sched.ErrBadConfig,
			want:     `unknown scheduler "nope"`,
		},
		{
			name: "flow leaf with discipline",
			spec: root(&hier.Spec{Name: "drr", IsFlow: true, Flow: 1, Weight: 1}),
			want: `hier: flow 1 cannot carry a discipline or children`,
		},
		{
			name: "flow under a discipline interior",
			spec: &hier.Spec{Name: "drr", Children: []*hier.Spec{{Name: "fifo", Weight: 1}, flowLeaf(1, 1)}},
			want: `hier: interior "root" cannot hold flow 1`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := hier.Build(tc.spec, sched.Config{})
			if err == nil {
				t.Fatal("malformed spec accepted")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			// Registry errors carry the full known-name list: pin their
			// prefix only.
			if got := err.Error(); got != tc.want && (tc.sentinel != sched.ErrBadConfig || !strings.Contains(got, tc.want)) {
				t.Errorf("error = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestComposedTreeSchedules builds an SFQ root over a DRR sink and an EDD
// sink, flows listed under each, and checks that the top-level weights
// still carve the link 2:1 while each sink's own discipline serves the
// flows routed into it.
func TestComposedTreeSchedules(t *testing.T) {
	tree := mustBuild(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "drr", Class: "bulk", Weight: 2, Children: []*hier.Spec{flowLeaf(1, 1), flowLeaf(2, 1)}},
		{Name: "edd", Class: "rt", Weight: 1, Children: []*hier.Spec{flowLeaf(3, 1)}},
	}})
	if tree.Sink(1) == nil || tree.Sink(3) == nil || tree.Sink(1) == tree.Sink(3) {
		t.Fatal("flows 1 and 3 not routed into two sinks")
	}
	var arr []schedtest.Arrival
	for i := 0; i < 90; i++ {
		for _, f := range []int{1, 2, 3} {
			arr = append(arr, schedtest.Arrival{At: 0, Flow: f, Bytes: 100})
		}
	}
	res := schedtest.Drive(tree, server.NewConstantRate(1000), arr)
	end := res.Mon.BackloggedIntervals(3)[0].End
	w1 := res.Mon.ServiceCurve(1).Delta(0, end)
	w2 := res.Mon.ServiceCurve(2).Delta(0, end)
	w3 := res.Mon.ServiceCurve(3).Delta(0, end)
	tot := w1 + w2 + w3
	// bulk gets 2/3 of the link, split evenly by DRR; rt gets 1/3.
	if f := (w1 + w2) / tot; f < 0.61 || f > 0.72 {
		t.Errorf("bulk share %v, want ≈ 2/3", f)
	}
	if f := w3 / tot; f < 0.28 || f > 0.39 {
		t.Errorf("rt share %v, want ≈ 1/3", f)
	}
	if f := w1 / (w1 + w2); f < 0.45 || f > 0.55 {
		t.Errorf("DRR split %v, want ≈ 0.5", f)
	}
}

// TestBuildAndLookup builds Example 3's tree from its Spec: a tree with
// named classes and flow leaves reports the Section 3 scheduler's kind and
// holds exactly the listed flows, none of them routed into a sink.
func TestBuildAndLookup(t *testing.T) {
	tree := mustBuild(spec3())
	if kind := tree.StateKind(); kind != "core/hsfq" {
		t.Errorf("StateKind = %q, want core/hsfq", kind)
	}
	var flows []int
	for _, fi := range tree.ListFlows() {
		flows = append(flows, fi.Flow)
	}
	if len(flows) != 3 || flows[0] != 2 || flows[1] != 3 || flows[2] != 4 {
		t.Errorf("flows %v, want [2 3 4]", flows)
	}
	for _, f := range []int{2, 3, 4, 99} {
		if tree.Sink(f) != nil {
			t.Errorf("Sink(%d) = %v, want nil on a tree without sinks", f, tree.Sink(f))
		}
	}
	if tree.Len() != 0 {
		t.Errorf("new tree holds %d packets", tree.Len())
	}
}

// TestTreeSchedules drives Example 3's tree and checks that it splits the
// link B 1/2, C and D 1/4.
func TestTreeSchedules(t *testing.T) {
	tree := mustBuild(spec3())
	var arr []schedtest.Arrival
	for i := 0; i < 90; i++ {
		for _, f := range []int{2, 3, 4} {
			arr = append(arr, schedtest.Arrival{At: 0, Flow: f, Bytes: 100})
		}
	}
	res := schedtest.Drive(tree, server.NewConstantRate(1000), arr)
	end := res.Mon.BackloggedIntervals(2)[0].End
	wb := res.Mon.ServiceCurve(2).Delta(0, end)
	wc := res.Mon.ServiceCurve(3).Delta(0, end)
	wd := res.Mon.ServiceCurve(4).Delta(0, end)
	tot := wb + wc + wd
	if f := wb / tot; f < 0.45 || f > 0.55 {
		t.Errorf("B share %v, want ≈ 0.5", f)
	}
	if f := wc / tot; f < 0.2 || f > 0.3 {
		t.Errorf("C share %v, want ≈ 0.25", f)
	}
	if f := wd / tot; f < 0.2 || f > 0.3 {
		t.Errorf("D share %v, want ≈ 0.25", f)
	}
}

// TestBoundsRecursion: Spec.FC nests eq (65) from the link down.
func TestBoundsRecursion(t *testing.T) {
	sp := spec3()
	link := server.FCParams{C: 1000, Delta: 50}
	fc := sp.FC(link, 100)
	if len(fc) != 5 {
		t.Errorf("FC covers %d nodes, want 5", len(fc))
	}
	a := sp.Children[0]
	if fc[a].C != 1 { // weight interpreted as reserved rate
		t.Errorf("A rate = %v", fc[a].C)
	}
	// A's delta per eq (65): r·Σl/C + r·δ/C + l.
	if want := qos.SFQThroughputFC(link, 1, 100, 200); fc[a] != want {
		t.Errorf("A FC = %+v, want %+v", fc[a], want)
	}
	// C's bound nests from A's.
	if want := qos.SFQThroughputFC(fc[a], 1, 100, 200); fc[a.Children[0]] != want {
		t.Errorf("C FC = %+v, want %+v", fc[a.Children[0]], want)
	}
	// Root carries the link itself.
	if fc[sp] != link {
		t.Errorf("root FC = %+v", fc[sp])
	}
}
