package hier_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hier"
	_ "repro/internal/pifo" // registers the pifo-* disciplines
	"repro/internal/sched"
)

// Grammar: parse, canonicalize, and reject — the composed-name surface the
// registry exposes. The scheduling behaviour of composed trees is pinned
// by the conformance matrix; these tests cover the layer's own mechanics.

func TestParseSpecCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"drr", "drr"},
		{"sfq(drr,edd)", "sfq(drr,edd)"},
		{"sfq(drr*1,edd*1)", "sfq(drr,edd)"}, // weight 1 is the default
		{"sfq(edd*4,scfq*3,drr*2,fifo)", "sfq(edd*4,scfq*3,drr*2,fifo)"},
		{"sfq(drr*2.5,edd)", "sfq(drr*2.5,edd)"},
		{"pifo-sfq(pifo-sfq,pifo-sfq)", "pifo-sfq(pifo-sfq,pifo-sfq)"},
		{"sfq(sfq(drr,fifo),edd)*3", "sfq(sfq(drr,fifo),edd)*3"},
	}
	for _, tc := range cases {
		sp, err := hier.ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got := sp.String(); got != tc.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	deep := strings.Repeat("a(", 9) + "a" + strings.Repeat(")", 9)
	wide := "sfq(" + strings.Repeat("a,", 64) + "a)"
	cases := []struct{ in, frag string }{
		{"", "expected a discipline name at offset 0"},
		{"SFQ", "expected a discipline name at offset 0"}, // names are lower-case
		{"sfq(drr,edd))", `trailing input at ")"`},
		{"sfq(drr,edd", "expected ')' at offset 11"},
		{"sfq(drr,)", "expected a discipline name at offset 8"},
		{"drr*0", `bad weight "0" for "drr"`},
		{"drr*", `bad weight "" for "drr"`},
		{"drr*-1", `bad weight "" for "drr"`}, // '-' is a name char, not a weight char
		{deep, "deeper than 8 levels"},
		{wide, "more than 64 nodes"},
	}
	for _, tc := range cases {
		_, err := hier.ParseSpec(tc.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.in)
			continue
		}
		if !errors.Is(err, sched.ErrBadConfig) {
			t.Errorf("ParseSpec(%q): not ErrBadConfig: %v", tc.in, err)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("ParseSpec(%q) = %q, want substring %q", tc.in, err, tc.frag)
		}
	}
}

func TestRegistryFamily(t *testing.T) {
	// Open-ended names resolve through the fallback even when unregistered.
	s, err := sched.NewDiscipline("hier:sfq(fifo,fifo)", sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if kind := s.(sched.Snapshotter).StateKind(); kind != "hier:sfq(fifo,fifo)" {
		t.Errorf("StateKind = %q", kind)
	}
	// Non-canonical spellings canonicalize in the state kind, so their
	// snapshots restore into canonically-named trees.
	if kind := mustTree("sfq(drr*1,edd)").StateKind(); kind != "hier:sfq(drr,edd)" {
		t.Errorf("canonical StateKind = %q", kind)
	}
	// Unknown discipline inside a spec surfaces the registry error.
	if _, err := sched.New("hier:sfq(bogus,fifo)"); !errors.Is(err, sched.ErrBadConfig) {
		t.Errorf("bogus child disc error = %v", err)
	}
}

// mustTree builds a tree from a grammar spec the test knows to be valid.
func mustTree(spec string) *hier.Tree {
	sp, err := hier.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return mustBuild(sp)
}

// mustBuild builds a tree from a spec the test knows to be valid.
func mustBuild(sp *hier.Spec) *hier.Tree {
	t, err := hier.Build(sp, sched.Config{})
	if err != nil {
		panic(err)
	}
	return t
}

// hsfq is the registry's "hsfq": an SFQ root class with no children yet.
func hsfq() *hier.Tree { return mustBuild(&hier.Spec{Name: "sfq", Class: "root"}) }

// flowLeaf is flow's leaf with the given weight.
func flowLeaf(flow int, weight float64) *hier.Spec {
	return &hier.Spec{IsFlow: true, Flow: flow, Weight: weight}
}

// drain pulls every queued packet at fixed virtual ticks and returns the
// (flow, length) service order.
func drain(s sched.Interface, now float64) []string {
	var out []string
	for {
		p, ok := s.Dequeue(now)
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%d:%g", p.Flow, p.Length))
		now += 1e-4
	}
}

func TestSingleSinkTree(t *testing.T) {
	// "hier:drr" is degenerate — the whole link is one sink — but it gives
	// any flat discipline the tree layer's snapshot/reconfigure surfaces.
	h := mustTree("drr")
	for f := 0; f < 3; f++ {
		if err := h.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := h.Enqueue(0, &sched.Packet{Flow: i % 3, Length: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 6 || h.QueuedBytes(1) != 200 {
		t.Fatalf("Len=%d bytes(1)=%v", h.Len(), h.QueuedBytes(1))
	}
	blob, err := h.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	h2 := mustTree("drr")
	if err := h2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	a, b := drain(h, 1e-3), drain(h2, 1e-3)
	if fmt.Sprint(a) != fmt.Sprint(b) || len(a) != 6 {
		t.Errorf("drain mismatch:\n  orig     %v\n  restored %v", a, b)
	}
}

func TestMixedTreeConservation(t *testing.T) {
	h := mustTree("sfq(edd,scfq,drr,fifo)")
	const flows, per = 8, 5
	want := 0
	for f := 0; f < flows; f++ {
		if err := h.AddFlow(f, float64(f%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	now := 0.0
	for i := 0; i < per; i++ {
		for f := 0; f < flows; f++ {
			if err := h.Enqueue(now, &sched.Packet{Flow: f, Length: float64(100 + 10*f)}); err != nil {
				t.Fatal(err)
			}
			want++
			now += 1e-5
		}
	}
	if h.Len() != want {
		t.Fatalf("Len = %d, want %d", h.Len(), want)
	}
	got := make(map[int]int)
	for h.Len() > 0 {
		p, ok := h.Dequeue(now)
		if !ok {
			t.Fatalf("ran dry with Len = %d", h.Len())
		}
		got[p.Flow]++
		now += 1e-4
	}
	for f := 0; f < flows; f++ {
		if got[f] != per {
			t.Errorf("flow %d served %d packets, want %d", f, got[f], per)
		}
		if h.QueuedBytes(f) != 0 {
			t.Errorf("flow %d QueuedBytes = %v after drain", f, h.QueuedBytes(f))
		}
	}
	if _, ok := h.Dequeue(now); ok {
		t.Error("dequeue from empty tree succeeded")
	}
}

func TestSnapshotRoundTripStructured(t *testing.T) {
	for _, spec := range []string{
		"sfq(drr,edd)",
		"sfq(edd,scfq,drr,fifo)",
		"pifo-sfq(pifo-sfq,pifo-sfq)",
		"sfq(sfq(fifo,drr),edd)",
	} {
		t.Run(spec, func(t *testing.T) {
			h := mustTree(spec)
			for f := 0; f < 6; f++ {
				if err := h.AddFlow(f, float64(f+1)); err != nil {
					t.Fatal(err)
				}
			}
			now := 0.0
			for i := 0; i < 30; i++ {
				if err := h.Enqueue(now, &sched.Packet{Flow: i % 6, Length: float64(64 + i)}); err != nil {
					t.Fatal(err)
				}
				now += 1e-5
				if i%4 == 3 { // interleave service so virtual clocks advance
					h.Dequeue(now)
				}
			}
			blob, err := h.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			// What a tree wrote while it kept a per-flow byte table of its own
			// beside the leaves': the same state plus "bytes". It must keep
			// restoring — the field is ignored, the leaves carry the count.
			var queued [6]float64
			var table []string
			for f := range queued {
				queued[f] = h.QueuedBytes(f)
				table = append(table, fmt.Sprintf(`{"flow":%d,"tag":%v}`, f, queued[f]))
			}
			old := bytes.Replace(blob, []byte(`,"root":`), []byte(`,"bytes":[`+strings.Join(table, ",")+`],"root":`), 1)
			want := drain(h, now)
			for name, blob := range map[string][]byte{"current": blob, "with bytes table": old} {
				h2 := mustTree(spec)
				if err := h2.RestoreState(blob); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if h2.Len() != len(want) {
					t.Fatalf("%s: restored Len = %d, want %d", name, h2.Len(), len(want))
				}
				for f, b := range queued {
					if got := h2.QueuedBytes(f); got != b || b == 0 {
						t.Errorf("%s: restored QueuedBytes(%d) = %v, want %v (and not 0)", name, f, got, b)
					}
				}
				if got := drain(h2, now); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: drain order diverged:\n  orig     %v\n  restored %v", name, want, got)
				}
			}
		})
	}
}

func TestSnapshotRefusesForeignShape(t *testing.T) {
	h := mustTree("sfq(drr,edd)")
	if err := h.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	blob, err := h.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same node count, different sink discipline: restore must refuse.
	h2 := mustTree("sfq(drr,scfq)")
	if err := h2.RestoreState(blob); err == nil {
		t.Error("restore into a different composition accepted")
	}
	// A bare flat HSFQ must refuse a structured snapshot too.
	if err := hsfq().RestoreState(blob); err == nil {
		t.Error("restore of a composed snapshot into a flat HSFQ accepted")
	}
}

func TestHandBuiltMixedTree(t *testing.T) {
	// sfq over a drr interior over two fifo sinks, written as a Spec
	// rather than parsed: flow 0 pre-routed into the first sink.
	mixed := func(aggChildren ...*hier.Spec) (*hier.Tree, error) {
		return hier.Build(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
			{Name: "drr", Class: "agg", Weight: 2, Children: aggChildren},
		}}, sched.Config{})
	}
	s1 := &hier.Spec{Name: "fifo", Class: "s1", Weight: 1, Children: []*hier.Spec{flowLeaf(0, 1)}}
	s2 := &hier.Spec{Name: "fifo", Class: "s2", Weight: 1}
	// Flow leaves may not hang off a discipline interior...
	if _, err := mixed(s1, s2, flowLeaf(9, 1)); err == nil {
		t.Error("flow leaf under a discipline interior accepted")
	}
	// ...but sinks take them, and AddFlow routes across the sinks.
	h, err := mixed(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 8; i++ {
		if err := h.Enqueue(now, &sched.Packet{Flow: i % 2, Length: 100}); err != nil {
			t.Fatal(err)
		}
		now += 1e-5
	}
	if got := drain(h, now); len(got) != 8 {
		t.Errorf("served %d packets, want 8", len(got))
	}
	// A named "sfq" class is a native interior even with no child yet,
	// and takes subclasses.
	if _, err := mixed(s1, &hier.Spec{Name: "sfq", Class: "native", Weight: 1, Children: []*hier.Spec{
		{Name: "sfq", Class: "sub", Weight: 1, Children: []*hier.Spec{flowLeaf(2, 1)}},
	}}); err != nil {
		t.Errorf("native sfq interior rejects subclasses: %v", err)
	}
}

func TestReconfigPaths(t *testing.T) {
	h := mustTree("sfq(drr,edd)")
	if err := h.AddFlow(0, 1); err != nil { // routes to the DRR sink
		t.Fatal(err)
	}
	if err := h.AddFlow(1, 1); err != nil { // routes to the EDD sink
		t.Fatal(err)
	}
	// SetWeight reaches into the owning sink (via Reconfigurable when the
	// discipline has one, AddFlow-upsert when it doesn't).
	if err := h.SetWeight(0, 5); err != nil {
		t.Errorf("SetWeight on a DRR-sink flow: %v", err)
	}
	if err := h.SetWeight(1, 5); err != nil {
		t.Errorf("SetWeight on an EDD-sink flow: %v", err)
	}
	if err := h.SetWeight(99, 1); err == nil {
		t.Error("SetWeight on an unknown flow accepted")
	}
	// The tree has no capacity knob of its own.
	if err := h.SetCapacity(1e6); !errors.Is(err, sched.ErrNoCapacityKnob) {
		t.Errorf("SetCapacity = %v", err)
	}
	// Draining a sink flow: refuses new arrivals, finalizes when served.
	if err := h.Enqueue(0, &sched.Packet{Flow: 0, Length: 100}); err != nil {
		t.Fatal(err)
	}
	if err := h.DrainFlow(0); err != nil {
		t.Fatal(err)
	}
	if err := h.Enqueue(1e-5, &sched.Packet{Flow: 0, Length: 100}); !errors.Is(err, sched.ErrFlowDraining) {
		t.Errorf("enqueue on draining flow = %v", err)
	}
	if p, ok := h.Dequeue(1e-3); !ok || p.Flow != 0 {
		t.Fatal("draining flow's packet not served")
	}
	for _, fi := range h.ListFlows() {
		if fi.Flow == 0 {
			t.Error("drained flow still listed")
		}
	}
}

// TestSinkRoutedFlowWeights: every registered tree routes AddFlow into a
// sink, and lists a routed flow with the weight it was added with, not its
// sink's class weight; a re-add or SetWeight through the sink moves it. A
// state names routed flows only, so a restored tree lists the weight its
// sink holds for each.
func TestSinkRoutedFlowWeights(t *testing.T) {
	for _, name := range sched.Names() {
		if !strings.HasPrefix(name, "hier:") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			s, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			h := s.(*hier.Tree)
			check := func(step string, tr *hier.Tree, want ...sched.FlowInfo) {
				t.Helper()
				if got := tr.ListFlows(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: ListFlows = %v, want %v", step, got, want)
				}
			}
			for _, fi := range []sched.FlowInfo{{Flow: 5, Weight: 300}, {Flow: 6, Weight: 700}} {
				if err := h.AddFlow(fi.Flow, fi.Weight); err != nil {
					t.Fatal(err)
				}
				if h.Sink(fi.Flow) == nil {
					t.Fatalf("flow %d has no sink", fi.Flow)
				}
			}
			check("added", h, sched.FlowInfo{Flow: 5, Weight: 300}, sched.FlowInfo{Flow: 6, Weight: 700})
			if err := h.AddFlow(5, 400); err != nil {
				t.Fatal(err)
			}
			check("re-added", h, sched.FlowInfo{Flow: 5, Weight: 400}, sched.FlowInfo{Flow: 6, Weight: 700})
			if err := h.SetWeight(6, 800); err != nil {
				t.Fatal(err)
			}
			check("re-weighted", h, sched.FlowInfo{Flow: 5, Weight: 400}, sched.FlowInfo{Flow: 6, Weight: 800})

			blob, err := h.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			r, _ := sched.New(name)
			restored := r.(*hier.Tree)
			if err := restored.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			check("restored", restored, h.ListFlows()...)
		})
	}
}

func TestTreePoolSafety(t *testing.T) {
	// Pool safety is the AND over sinks: DRR and EDD both recycle, so the
	// composed tree does; a sink whose discipline has no PacketPoolSafe
	// poisons it.
	if !sched.PoolSafeScheduler(mustTree("sfq(drr,edd)")) {
		t.Error("sfq(drr,edd) should be pool-safe")
	}
	h := mustBuild(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "test-unsafe-fifo", Class: "d", Weight: 1, Children: []*hier.Spec{flowLeaf(1, 1)}},
	}})
	if sched.PoolSafeScheduler(h) {
		t.Error("tree with a pool-unsafe sink claims pool safety")
	}
}

func init() {
	sched.Register("test-unsafe-fifo", func(sched.Config) (sched.Interface, error) {
		return unsafeSched{sched.MustNew("fifo")}, nil
	})
}

// unsafeSched hides FIFO's PacketPoolSafe method behind the plain
// Interface method set.
type unsafeSched struct{ sched.Interface }

// TestRestoreChecksSinkRouting: a sink's routed flows must be exactly the
// flows its discipline holds. Otherwise the tree would count a flow's
// packets in Len but skip them in VisitQueued, and refuse the flow to
// SetWeight, DrainFlow and RemoveFlow while the sink serves its backlog.
func TestRestoreChecksSinkRouting(t *testing.T) {
	h := mustTree("sfq(drr,edd)")
	for f := 1; f <= 4; f++ {
		if err := h.AddFlow(f, float64(f)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 20; k++ {
		if err := h.Enqueue(0, &sched.Packet{Flow: k%4 + 1, Seq: int64(k), Length: 100}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := h.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mustTree("sfq(drr,edd)").RestoreState(blob); err != nil {
		t.Fatalf("genuine state refused: %v", err)
	}
	const drrFlows = `"flows":[2,4]`
	if !bytes.Contains(blob, []byte(drrFlows)) {
		t.Fatalf("state has no %s: %s", drrFlows, blob)
	}
	for name, routed := range map[string]string{
		"id dropped from the sink's list":    `"flows":[4]`,
		"id the sink never registered":       `"flows":[2,4,6]`,
		"id the sink never registered, swap": `"flows":[2,6]`,
	} {
		bad := bytes.Replace(blob, []byte(drrFlows), []byte(routed), 1)
		if err := mustTree("sfq(drr,edd)").RestoreState(bad); !errors.Is(err, sched.ErrBadState) {
			t.Errorf("%s: restore returned %v, want ErrBadState", name, err)
		}
	}
}
