package topo_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topo"
)

func linkSpec(name, from, to string, rate float64) topo.LinkSpec {
	return topo.LinkSpec{
		Name: name, From: from, To: to,
		Sched: core.New(),
		Proc:  server.NewConstantRate(rate),
	}
}

func TestBuildAndRouteSingleHop(t *testing.T) {
	q := &eventq.Queue{}
	n, err := topo.Build(q,
		[]topo.LinkSpec{linkSpec("ab", "a", "b", 100)},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"ab"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	q.At(0, func() { n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	if n.Sink(1).Count(1) != 1 {
		t.Errorf("sink count = %d", n.Sink(1).Count(1))
	}
	if got := n.Monitor("ab").ServedBytes(1); got != 100 {
		t.Errorf("served = %v", got)
	}
}

func TestThreeHopChainTiming(t *testing.T) {
	q := &eventq.Queue{}
	var links []topo.LinkSpec
	names := []string{"ab", "bc", "cd"}
	nodes := []string{"a", "b", "c", "d"}
	for i, nm := range names {
		ls := linkSpec(nm, nodes[i], nodes[i+1], 100)
		ls.PropDelay = 0.1
		links = append(links, ls)
	}
	var arrived float64
	sink := sim.ConsumerFunc(func(f *sim.Frame) { arrived = q.Now() })
	n, err := topo.Build(q, links,
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: names, Sink: sink}})
	if err != nil {
		t.Fatal(err)
	}
	q.At(0, func() { n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100}) })
	q.Run()
	// 3 × (1 s transmission + 0.1 s propagation).
	if math.Abs(arrived-3.3) > 1e-9 {
		t.Errorf("arrival = %v, want 3.3", arrived)
	}
}

func TestRoutesDiverge(t *testing.T) {
	q := &eventq.Queue{}
	n, err := topo.Build(q,
		[]topo.LinkSpec{
			linkSpec("ab", "a", "b", 1000),
			linkSpec("bc", "b", "c", 1000),
			linkSpec("bd", "b", "d", 1000),
		},
		[]topo.FlowSpec{
			{Flow: 1, Weight: 1, Route: []string{"ab", "bc"}},
			{Flow: 2, Weight: 1, Route: []string{"ab", "bd"}},
		})
	if err != nil {
		t.Fatal(err)
	}
	q.At(0, func() {
		n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		n.Entry(2).Deliver(&sim.Frame{Flow: 2, Bytes: 100})
	})
	q.Run()
	if n.Sink(1).Count(1) != 1 || n.Sink(2).Count(2) != 1 {
		t.Error("flows did not reach their sinks")
	}
	if n.Monitor("bc").ServedBytes(2) != 0 || n.Monitor("bd").ServedBytes(1) != 0 {
		t.Error("flow leaked onto the wrong branch")
	}
	if n.Monitor("ab").ServedBytes(1) != 100 || n.Monitor("ab").ServedBytes(2) != 100 {
		t.Error("shared hop missing traffic")
	}
}

func TestBuildValidation(t *testing.T) {
	q := &eventq.Queue{}
	ab := linkSpec("ab", "a", "b", 1)
	cd := linkSpec("cd", "c", "d", 1)

	_, err := topo.Build(q, []topo.LinkSpec{ab, linkSpec("ab", "x", "y", 1)}, nil)
	if !errors.Is(err, topo.ErrDuplicateLink) {
		t.Errorf("duplicate link: %v", err)
	}

	_, err = topo.Build(q, []topo.LinkSpec{ab},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"zz"}}})
	if !errors.Is(err, topo.ErrUnknownLink) {
		t.Errorf("unknown link: %v", err)
	}

	_, err = topo.Build(q, []topo.LinkSpec{ab, cd},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"ab", "cd"}}})
	if !errors.Is(err, topo.ErrBadRoute) {
		t.Errorf("discontiguous route: %v", err)
	}

	_, err = topo.Build(q, []topo.LinkSpec{ab},
		[]topo.FlowSpec{
			{Flow: 1, Weight: 1, Route: []string{"ab"}},
			{Flow: 1, Weight: 1, Route: []string{"ab"}},
		})
	if !errors.Is(err, topo.ErrDuplicateFlow) {
		t.Errorf("duplicate flow: %v", err)
	}

	_, err = topo.Build(q, []topo.LinkSpec{ab},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: nil}})
	if err == nil {
		t.Error("empty route accepted")
	}

	_, err = topo.Build(q, []topo.LinkSpec{ab},
		[]topo.FlowSpec{{Flow: 1, Weight: -1, Route: []string{"ab"}}})
	if err == nil {
		t.Error("bad weight accepted")
	}
}

func TestSharedBottleneckFairness(t *testing.T) {
	// Two flows share hop "ab" with weights 1:3, then split. The shared
	// SFQ hop divides its bandwidth by weight.
	q := &eventq.Queue{}
	shared := linkSpec("ab", "a", "b", 1000)
	n, err := topo.Build(q,
		[]topo.LinkSpec{shared, linkSpec("bc", "b", "c", 10000), linkSpec("bd", "b", "d", 10000)},
		[]topo.FlowSpec{
			{Flow: 1, Weight: 1, Route: []string{"ab", "bc"}},
			{Flow: 2, Weight: 3, Route: []string{"ab", "bd"}},
		})
	if err != nil {
		t.Fatal(err)
	}
	q.At(0, func() {
		for i := 0; i < 100; i++ {
			n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100})
			n.Entry(2).Deliver(&sim.Frame{Flow: 2, Bytes: 100})
		}
	})
	q.Run()
	mon := n.Monitor("ab")
	// Measure while both are backlogged: flow 2 (weight 3) drains first.
	end := mon.BackloggedIntervals(2)[0].End
	w1 := mon.ServiceCurve(1).Delta(0, end)
	w2 := mon.ServiceCurve(2).Delta(0, end)
	if r := w2 / w1; r < 2.5 || r > 3.5 {
		t.Errorf("shared-hop ratio = %v, want ≈ 3", r)
	}
}

func TestUnroutedFrameDropsCounted(t *testing.T) {
	// A frame that exits a link with no next hop wired for its flow must be
	// counted as a no-route drop, never a crash.
	q := &eventq.Queue{}
	n, err := topo.Build(q,
		[]topo.LinkSpec{{
			Name: "ab", From: "a", To: "b",
			Sched: func() sched.Interface { f := sched.MustNew("fifo"); _ = f.AddFlow(9, 1); return f }(),
			Proc:  server.NewConstantRate(100),
		}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	q.At(0, func() { n.Link("ab").Deliver(&sim.Frame{Flow: 9, Bytes: 10}) })
	q.Run()
	if got := n.NoRouteDrops(9); got != 1 {
		t.Errorf("NoRouteDrops(9) = %d, want 1", got)
	}
	if got := n.DropsByFlow(9); got != 1 {
		t.Errorf("DropsByFlow(9) = %d, want 1", got)
	}
	if got := n.Drops()[topo.DropNoRoute]; got != 1 {
		t.Errorf("Drops()[no-route] = %d, want 1", got)
	}
}

func TestRemoveFlowValidation(t *testing.T) {
	q := &eventq.Queue{}
	n, err := topo.Build(q,
		[]topo.LinkSpec{linkSpec("ab", "a", "b", 100)},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"ab"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveFlow(7); !errors.Is(err, topo.ErrUnknownFlow) {
		t.Errorf("unknown flow: %v", err)
	}
	// Two frames: one in service, one queued. Removal must refuse while the
	// second is still queued.
	q.At(0, func() {
		n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100})
	})
	q.At(0.5, func() {
		if err := n.RemoveFlow(1); !errors.Is(err, topo.ErrFlowBusy) {
			t.Errorf("busy flow: %v", err)
		}
	})
	q.Run()
	if err := n.RemoveFlow(1); err != nil {
		t.Errorf("drained flow should remove cleanly: %v", err)
	}
	// Re-adding the same id after removal is not a duplicate.
	if err := n.AddFlow(topo.FlowSpec{Flow: 1, Weight: 1, Route: []string{"ab"}}); err != nil {
		t.Errorf("re-add after remove: %v", err)
	}
}

func TestRemovedFlowInFlightFrameCounted(t *testing.T) {
	// A frame in propagation when its flow is removed — between hops, or
	// from the last hop toward the sink — arrives where the flow has no
	// route any more: counted as a no-route drop for that flow, not
	// delivered to the sink the route had when the frame left.
	for _, route := range [][]string{{"ab", "bc"}, {"ab"}} {
		q := &eventq.Queue{}
		ab := linkSpec("ab", "a", "b", 100)
		ab.PropDelay = 0.5
		var received int
		sink := sim.ConsumerFunc(func(*sim.Frame) { received++ })
		n, err := topo.Build(q,
			[]topo.LinkSpec{ab, linkSpec("bc", "b", "c", 100)},
			[]topo.FlowSpec{{Flow: 2, Weight: 1, Route: route, Sink: sink}})
		if err != nil {
			t.Fatal(err)
		}
		q.At(0, func() { n.Entry(2).Deliver(&sim.Frame{Flow: 2, Bytes: 100}) })
		// Transmission on ab ends at t=1.0; the frame is in propagation
		// until t=1.5. Removing at t=1.2 succeeds (no queued bytes
		// anywhere) and the frame strands.
		q.At(1.2, func() {
			if err := n.RemoveFlow(2); err != nil {
				t.Fatalf("route %v: remove with frame in propagation: %v", route, err)
			}
		})
		q.Run()
		if got := n.NoRouteDrops(2); got != 1 || received != 0 {
			t.Errorf("route %v: NoRouteDrops(2) = %d, received %d; want 1, 0", route, got, received)
		}
	}
}

// refuseAdd is a scheduler that refuses every flow registration.
type refuseAdd struct{ sched.Interface }

func (refuseAdd) AddFlow(int, float64) error { return errors.New("refused") }

func TestAddFlowAllOrNothing(t *testing.T) {
	// A route that fails validation, or whose registration fails on a later
	// hop, leaves no flow registered on any hop.
	q := &eventq.Queue{}
	bc := linkSpec("bc", "b", "c", 100)
	bc.Sched = refuseAdd{core.New()}
	n, err := topo.Build(q, []topo.LinkSpec{linkSpec("ab", "a", "b", 100), bc, linkSpec("cd", "c", "d", 100)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		route []string
		want  error
	}{
		{[]string{"ab", "nope"}, topo.ErrUnknownLink},
		{[]string{"ab", "cd"}, topo.ErrBadRoute},
		{[]string{"ab", "bc"}, nil}, // bc's scheduler refuses
	} {
		err := n.AddFlow(topo.FlowSpec{Flow: 9, Weight: 1, Route: tc.route})
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("route %v: AddFlow = %v, want %v", tc.route, err, tc.want)
		}
		if err := n.Link("ab").Scheduler().RemoveFlow(9); !errors.Is(err, sched.ErrUnknownFlow) {
			t.Errorf("route %v: flow 9 left registered on ab (RemoveFlow = %v)", tc.route, err)
		}
		if err := n.RemoveFlow(9); !errors.Is(err, topo.ErrUnknownFlow) {
			t.Errorf("route %v: flow 9 left registered on the network (RemoveFlow = %v)", tc.route, err)
		}
	}
	if err := n.AddFlow(topo.FlowSpec{Flow: 9, Weight: 1, Route: []string{"ab"}}); err != nil {
		t.Errorf("valid route after failures: %v", err)
	}
}

func TestDigestCustomSink(t *testing.T) {
	// The ebftail shape: a chain of hops with propagation delay, the
	// observed flow on the whole chain into a caller-supplied sink, and
	// one cross flow per hop into an auto-sink. Digest prints the custom
	// flow without totals, and q.Run and Run agree on it.
	build := func() (*eventq.Queue, *topo.Sharded, *int) {
		q := &eventq.Queue{}
		received := new(int)
		var links []topo.LinkSpec
		flows := []topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"h1", "h2"},
			Sink: sim.ConsumerFunc(func(*sim.Frame) { *received++ })}}
		for h, nodes := range [][2]string{{"n0", "n1"}, {"n1", "n2"}} {
			name := fmt.Sprintf("h%d", h+1)
			ls := linkSpec(name, nodes[0], nodes[1], 1000)
			ls.PropDelay = 0.001
			links = append(links, ls)
			flows = append(flows, topo.FlowSpec{Flow: 2 + h, Weight: 2, Route: []string{name}})
		}
		n, err := topo.Build(q, links, flows)
		if err != nil {
			t.Fatal(err)
		}
		for f := 1; f <= 3; f++ {
			c := n.Entry(f)
			for i := 0; i < 20; i++ {
				fr := &sim.Frame{Flow: f, Bytes: 100}
				q.At(float64(i)*0.03, func() { c.Deliver(fr) })
			}
		}
		return q, n, received
	}
	q, n, received := build()
	q.Run()
	d := n.Digest()
	if *received != 20 {
		t.Fatalf("custom sink received %d, want 20", *received)
	}
	for _, line := range []string{"f 1 sink custom noroute 0\n", "f 2 count 20 bytes 2000 noroute 0\n", "f 3 count 20 bytes 2000 noroute 0\n"} {
		if !strings.Contains(d, line) {
			t.Errorf("digest lacks %q:\n%s", line, d)
		}
	}
	_, n2, _ := build()
	n2.Run(2)
	if got := n2.Digest(); got != d || n2.Windows() != 1 {
		t.Errorf("Run(2) on a one-domain build: %d windows, digest\n%s\nwant 1 window, digest\n%s", n2.Windows(), got, d)
	}
}

func TestFlowChurnUnderLoad(t *testing.T) {
	// Add and remove the same flow repeatedly on a live two-hop route while
	// a background flow keeps both links busy. The scheduler tag chains must
	// survive (the background flow loses nothing) and every churned-flow
	// frame must be accounted for: received, or dropped with a cause.
	q := &eventq.Queue{}
	n, err := topo.Build(q,
		[]topo.LinkSpec{linkSpec("ab", "a", "b", 1000), linkSpec("bc", "b", "c", 2000)},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"ab", "bc"}}})
	if err != nil {
		t.Fatal(err)
	}
	const bgFrames = 60
	q.At(0, func() {
		for i := 0; i < bgFrames; i++ {
			n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100, Created: 0})
		}
	})

	var received, sent int
	churnSink := sim.ConsumerFunc(func(f *sim.Frame) { received++ })
	spec := topo.FlowSpec{Flow: 2, Weight: 2, Route: []string{"ab", "bc"}, Sink: churnSink}
	cycles := 0
	const wantCycles = 8
	var addBurst func()
	addBurst = func() {
		if err := n.AddFlow(spec); err != nil {
			t.Errorf("cycle %d: AddFlow: %v", cycles, err)
			return
		}
		for i := 0; i < 5; i++ {
			n.Entry(2).Deliver(&sim.Frame{Flow: 2, Bytes: 100, Created: q.Now()})
			sent++
		}
		var tryRemove func()
		tryRemove = func() {
			err := n.RemoveFlow(2)
			if errors.Is(err, topo.ErrFlowBusy) {
				q.After(0.05, tryRemove)
				return
			}
			if err != nil {
				t.Errorf("cycle %d: RemoveFlow: %v", cycles, err)
				return
			}
			cycles++
			if cycles < wantCycles {
				q.After(0.01, addBurst)
			}
		}
		q.After(0.05, tryRemove)
	}
	q.At(0.001, addBurst)
	q.Run()

	if cycles != wantCycles {
		t.Fatalf("completed %d churn cycles, want %d", cycles, wantCycles)
	}
	// Background flow is untouched by the churn.
	if got := n.Sink(1).Count(1); got != bgFrames {
		t.Errorf("background flow delivered %d, want %d", got, bgFrames)
	}
	// Every churned frame is accounted: delivered or cause-tagged drop.
	if drops := int(n.DropsByFlow(2)); received+drops != sent {
		t.Errorf("churn accounting: received %d + drops %d != sent %d", received, drops, sent)
	}
	// The route still works after all the churn.
	if err := n.AddFlow(spec); err != nil {
		t.Fatalf("final re-add: %v", err)
	}
	q.At(q.Now()+0.01, func() { n.Entry(2).Deliver(&sim.Frame{Flow: 2, Bytes: 100, Created: q.Now()}) })
	before := received
	q.Run()
	if received != before+1 {
		t.Errorf("post-churn delivery: received %d, want %d", received, before+1)
	}
}
