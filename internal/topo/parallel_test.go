package topo_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topo"
)

// shardScenario describes a deterministic 5-link, 3-flow Y topology with
// enough traffic to force queueing, cross-domain transit, and buffer-full
// drops:
//
//	s1 --in1--> sw1 --mid--> sw2 --out1--> d1
//	s2 --in2--> sw1          sw2 --out2--> d2
//
// f1: in1→mid→out1, f2: in2→mid→out2, f3 enters at sw1: mid→out1.
// Injection periods are incommensurate so no two cross-link arrivals ever
// tie (classic Build and BuildSharded may break exact cross-link ties
// differently; nothing else differs).
func shardLinks() []topo.LinkSpec {
	// Rates and delays are prime-flavored so no two frames' arrival
	// instants at a shared link ever coincide exactly (an exact float tie
	// would be broken by event seq, which legitimately differs between the
	// shared-queue and sharded executors).
	return []topo.LinkSpec{
		{Name: "in1", From: "s1", To: "sw1", Sched: core.New(), Proc: server.NewConstantRate(999983), PropDelay: 0.0020003},
		{Name: "in2", From: "s2", To: "sw1", Sched: core.New(), Proc: server.NewConstantRate(987503), PropDelay: 0.0029917},
		{Name: "mid", From: "sw1", To: "sw2", Sched: core.New(), Proc: server.NewConstantRate(399877), PropDelay: 0.0050021, Buffer: 3000},
		{Name: "out1", From: "sw2", To: "d1", Sched: core.New(), Proc: server.NewConstantRate(800311), PropDelay: 0.0010007},
		{Name: "out2", From: "sw2", To: "d2", Sched: core.New(), Proc: server.NewConstantRate(799997), PropDelay: 0.0040009},
	}
}

func shardFlows() []topo.FlowSpec {
	return []topo.FlowSpec{
		{Flow: 1, Weight: 2, Route: []string{"in1", "mid", "out1"}},
		{Flow: 2, Weight: 1, Route: []string{"in2", "mid", "out2"}},
		{Flow: 3, Weight: 1, Route: []string{"mid", "out1"}},
	}
}

// injectShard schedules the deterministic workload on a sharded build.
func injectShard(s *topo.Sharded) {
	inject(func(flow int) (*eventq.Queue, sim.Consumer) {
		return s.EntryQueue(flow), s.Entry(flow)
	})
}

// injectClassic schedules the identical workload on a classic build.
func injectClassic(n *topo.Sharded) {
	inject(func(flow int) (*eventq.Queue, sim.Consumer) {
		return n.EntryQueue(flow), n.Entry(flow)
	})
}

func inject(entry func(flow int) (*eventq.Queue, sim.Consumer)) {
	// Periods and sizes per flow: mutually incommensurate, heavy enough to
	// backlog the 4e5 B/s mid link (f1+f2+f3 offer ~5.6e5 B/s).
	specs := []struct {
		flow   int
		phase  float64
		period float64
		bytes  float64
		n      int
	}{
		{1, 0.00071, 0.0130703, 2999, 150},
		{2, 0.000911, 0.0172909, 2411, 110},
		{3, 0.001013, 0.0191101, 1499, 100},
	}
	for _, sp := range specs {
		q, c := entry(sp.flow)
		for i := 0; i < sp.n; i++ {
			f := &sim.Frame{Flow: sp.flow, Bytes: sp.bytes, Seq: int64(i)}
			q.At(sp.phase+float64(i)*sp.period, func() { c.Deliver(f) })
		}
	}
}

// TestShardedParallelMatchesSerial is the digest pin for the parallel
// mode: the same scenario run on 1 worker and on many workers must produce
// bit-identical digests (per-link service-record traces, drop counters,
// sink totals). This is the in-scenario analogue of RunMatrix's
// shard-count invariance.
func TestShardedParallelMatchesSerial(t *testing.T) {
	run := func(workers int) (string, int64) {
		s, err := topo.BuildSharded(shardLinks(), shardFlows())
		if err != nil {
			t.Fatal(err)
		}
		injectShard(s)
		s.Run(workers)
		return s.Digest(), s.Windows()
	}
	serial, windows := run(1)
	if windows < 2 {
		t.Fatalf("scenario executed %d windows; want ≥ 2 so the barrier actually exchanges frames", windows)
	}
	if serial == "" {
		t.Fatal("empty digest")
	}
	for _, workers := range []int{2, 4, 8, 0} {
		parallel, _ := run(workers)
		if parallel != serial {
			t.Fatalf("digest(workers=%d) differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, parallel)
		}
	}
	// The scenario must actually have exercised drops and multi-hop
	// delivery, or the digest equality is vacuous.
	s, err := topo.BuildSharded(shardLinks(), shardFlows())
	if err != nil {
		t.Fatal(err)
	}
	injectShard(s)
	s.Run(4)
	if s.Drops()[sim.DropBufferFull] == 0 {
		t.Error("expected buffer-full drops at the mid link")
	}
	for f := 1; f <= 3; f++ {
		if s.Sink(f).Count(f) == 0 {
			t.Errorf("flow %d delivered nothing", f)
		}
	}
}

// TestShardedMatchesClassicNetwork: the sharded executor reproduces the
// shared-queue (Build + q.Run) run exactly — the full Digest, so every
// per-link service record, counter and per-flow sink total — on a scenario
// with no exact cross-link arrival ties. Run on a one-domain build is one
// window and gives the same digest.
func TestShardedMatchesClassicNetwork(t *testing.T) {
	q := &eventq.Queue{}
	n, err := topo.Build(q, shardLinks(), shardFlows())
	if err != nil {
		t.Fatal(err)
	}
	injectClassic(n)
	q.Run()

	s, err := topo.BuildSharded(shardLinks(), shardFlows())
	if err != nil {
		t.Fatal(err)
	}
	injectShard(s)
	s.Run(4)

	for f := 1; f <= 3; f++ {
		cc, cb := n.Sink(f).Count(f), n.Sink(f).Bytes(f)
		sc, sb := s.Sink(f).Count(f), s.Sink(f).Bytes(f)
		if cc != sc || cb != sb {
			t.Errorf("flow %d: classic %d frames / %v B, sharded %d frames / %v B", f, cc, cb, sc, sb)
		}
		if n.NoRouteDrops(f) != s.NoRouteDrops(f) {
			t.Errorf("flow %d: no-route drops differ", f)
		}
	}
	for _, ls := range shardLinks() {
		cl, sl := n.Link(ls.Name), s.Link(ls.Name)
		if cl.Delivered() != sl.Delivered() {
			t.Errorf("link %s: delivered %d (classic) vs %d (sharded)", ls.Name, cl.Delivered(), sl.Delivered())
		}
		cd, sd := cl.DropsByCause(), sl.DropsByCause()
		for c, v := range cd {
			if sd[c] != v {
				t.Errorf("link %s: drops[%s] %d (classic) vs %d (sharded)", ls.Name, c, v, sd[c])
			}
		}
		if cl.QueuedFrames() != 0 || sl.QueuedFrames() != 0 {
			t.Errorf("link %s: residual queue (classic %d, sharded %d)", ls.Name, cl.QueuedFrames(), sl.QueuedFrames())
		}
	}
	if cd, sd := n.Digest(), s.Digest(); cd != sd {
		t.Errorf("digest differs:\n--- classic ---\n%s--- sharded ---\n%s", cd, sd)
	}

	one, err := topo.Build(&eventq.Queue{}, shardLinks(), shardFlows())
	if err != nil {
		t.Fatal(err)
	}
	injectClassic(one)
	one.Run(3)
	if one.Windows() != 1 {
		t.Errorf("one-domain Run(3): %d windows, want 1", one.Windows())
	}
	if od := one.Digest(); od != n.Digest() {
		t.Errorf("one-domain Run(3) digest differs from q.Run:\n%s", od)
	}
}

// TestShardedValidation covers the build-time constraints specific to
// parallel execution.
func TestShardedValidation(t *testing.T) {
	mk := func() []topo.LinkSpec {
		return []topo.LinkSpec{
			{Name: "a", From: "x", To: "y", Sched: core.New(), Proc: server.NewConstantRate(1e6), PropDelay: 0.001},
			{Name: "b", From: "y", To: "z", Sched: core.New(), Proc: server.NewConstantRate(1e6), PropDelay: 0.001},
		}
	}
	flows := []topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"a", "b"}}}

	// Zero propagation on a cross-domain link: no safe horizon.
	links := mk()
	links[0].PropDelay = 0
	if _, err := topo.BuildSharded(links, flows); err == nil {
		t.Error("zero-PropDelay cross link accepted")
	}
	// A purely-egress link may have zero propagation delay.
	links = mk()
	links[1].PropDelay = 0
	if _, err := topo.BuildSharded(links, flows); err != nil {
		t.Errorf("zero-PropDelay egress link rejected: %v", err)
	}
	// Custom sinks cannot cross the worker boundary.
	if _, err := topo.BuildSharded(mk(), []topo.FlowSpec{
		{Flow: 1, Weight: 1, Route: []string{"a", "b"}, Sink: sim.ConsumerFunc(func(*sim.Frame) {})},
	}); err == nil {
		t.Error("custom sink accepted in sharded mode")
	}
	// Classic validation still applies.
	if _, err := topo.BuildSharded(mk(), []topo.FlowSpec{
		{Flow: 1, Weight: 1, Route: []string{"a", "nope"}},
	}); err == nil {
		t.Error("unknown link accepted")
	}
	if _, err := topo.BuildSharded(mk(), []topo.FlowSpec{
		{Flow: 1, Weight: 1, Route: []string{"b", "a"}},
	}); err == nil {
		t.Error("non-contiguous route accepted")
	}
}

// TestShardedSingleLinkInfiniteLookahead: with no cross-domain edges the
// lookahead is infinite and the whole scenario executes as one window.
func TestShardedSingleLinkInfiniteLookahead(t *testing.T) {
	s, err := topo.BuildSharded(
		[]topo.LinkSpec{{Name: "only", From: "a", To: "b", Sched: core.New(), Proc: server.NewConstantRate(1e5)}},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"only"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(s.Lookahead(), 1) {
		t.Fatalf("lookahead = %v, want +Inf", s.Lookahead())
	}
	q, c := s.EntryQueue(1), s.Entry(1)
	for i := 0; i < 10; i++ {
		f := &sim.Frame{Flow: 1, Bytes: 1000}
		q.At(float64(i)*0.001, func() { c.Deliver(f) })
	}
	s.Run(4)
	if s.Windows() != 1 {
		t.Errorf("windows = %d, want 1", s.Windows())
	}
	if s.Sink(1).Count(1) != 10 {
		t.Errorf("delivered %d, want 10", s.Sink(1).Count(1))
	}
}

// TestShardedLiveFlowsBetweenRuns: on a multi-queue engine flows are added
// and removed between Runs. The lookahead follows the current cross-queue
// hops, the result stays independent of workers, and a refused AddFlow
// registers nothing.
func TestShardedLiveFlowsBetweenRuns(t *testing.T) {
	links := func() []topo.LinkSpec {
		return []topo.LinkSpec{
			{Name: "in1", From: "s1", To: "m", Sched: core.New(), Proc: server.NewConstantRate(1e5), PropDelay: 0.004},
			{Name: "in2", From: "s2", To: "m", Sched: core.New(), Proc: server.NewConstantRate(1e5), PropDelay: 0.001},
			{Name: "in3", From: "s3", To: "m", Sched: core.New(), Proc: server.NewConstantRate(1e5)},
			{Name: "out", From: "m", To: "d", Sched: core.New(), Proc: server.NewConstantRate(5e4), PropDelay: 0.002},
		}
	}
	burst := func(s *topo.Sharded, flow int) {
		q, c := s.EntryQueue(flow), s.Entry(flow)
		t0 := q.Now()
		for i := 0; i < 30; i++ {
			f := &sim.Frame{Flow: flow, Bytes: 1000 + float64(i)}
			q.At(t0+float64(i)*0.0031, func() { c.Deliver(f) })
		}
	}
	run := func(workers int) string {
		s, err := topo.BuildSharded(links(), []topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"in1", "out"}}})
		if err != nil {
			t.Fatal(err)
		}
		if la := s.Lookahead(); la != 0.004 {
			t.Errorf("lookahead = %v, want 0.004", la)
		}
		burst(s, 1)
		s.Run(workers)
		first := s.Sink(1).Count(1)
		if err := s.RemoveFlow(1); err != nil {
			t.Fatalf("RemoveFlow between Runs: %v", err)
		}
		if la := s.Lookahead(); !math.IsInf(la, 1) {
			t.Errorf("lookahead after removal = %v, want +Inf", la)
		}
		for _, tc := range []struct {
			fs   topo.FlowSpec
			want error
		}{
			{topo.FlowSpec{Flow: 3, Weight: 1, Route: []string{"in3", "out"}}, topo.ErrNoLookahead},
			{topo.FlowSpec{Flow: 3, Weight: 1, Route: []string{"in2", "out"},
				Sink: sim.ConsumerFunc(func(*sim.Frame) {})}, topo.ErrCustomSink},
		} {
			fs := tc.fs
			if err := s.AddFlow(fs); !errors.Is(err, tc.want) {
				t.Errorf("AddFlow(%v) = %v, want %v", fs.Route, err, tc.want)
			}
			for _, name := range fs.Route {
				if err := s.Link(name).Scheduler().RemoveFlow(3); !errors.Is(err, sched.ErrUnknownFlow) {
					t.Errorf("refused flow left registered on %s (RemoveFlow = %v)", name, err)
				}
			}
			if s.Sink(3) != nil || !math.IsInf(s.Lookahead(), 1) {
				t.Errorf("refused AddFlow(%v) changed the network", fs.Route)
			}
		}
		if err := s.AddFlow(topo.FlowSpec{Flow: 2, Weight: 1, Route: []string{"in2", "out"}}); err != nil {
			t.Fatalf("AddFlow between Runs: %v", err)
		}
		if la := s.Lookahead(); la != 0.001 {
			t.Errorf("lookahead after AddFlow = %v, want 0.001", la)
		}
		burst(s, 2)
		s.Run(workers)
		if first != 30 || s.Sink(2).Count(2) != 30 || s.Windows() < 2 {
			t.Errorf("delivered %d then %d in %d windows; want 30, 30, ≥ 2", first, s.Sink(2).Count(2), s.Windows())
		}
		return s.Digest()
	}
	if serial, parallel := run(1), run(4); serial != parallel {
		t.Errorf("Run(1) and Run(4) differ:\n--- 1 ---\n%s--- 4 ---\n%s", serial, parallel)
	}
}
