package topo_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
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
func shardLinks() []topo.LinkSpec {
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
// shard-count invariance. Run(1) makes ⌈E/512⌉ passes, E being the most
// events that a queue no other feeds (in1, in2) runs.
func TestShardedParallelMatchesSerial(t *testing.T) {
	run := func(workers int) (string, *topo.Sharded) {
		s, err := topo.BuildSharded(shardLinks(), shardFlows())
		if err != nil {
			t.Fatal(err)
		}
		injectShard(s)
		s.Run(workers)
		return s.Digest(), s
	}
	serial, s := run(1)
	if e := max(s.Queue("in1").Steps(), s.Queue("in2").Steps()); s.Windows() != int64(e+511)/512 {
		t.Errorf("Run(1) made %d passes; the source queues ran at most %d events", s.Windows(), e)
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
// per-link service record, counter and per-flow sink total. Run on a
// one-domain build gives the same digest, in ⌈events/512⌉ passes.
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
	if e := one.Queue("mid").Steps(); one.Windows() != int64(e+511)/512 {
		t.Errorf("one-domain Run(3): %d passes over %d events", one.Windows(), e)
	}
	if od := one.Digest(); od != n.Digest() {
		t.Errorf("one-domain Run(3) digest differs from q.Run:\n%s", od)
	}
}

// tieLinks is a tandem a → b → c of equal-rate links, and tieFlows load it
// so that b and c queue. Rates, sizes and delays are powers of two, so every
// event time is exact and a frame handed from one link to the next often
// arrives at the very instant its new link completes a transmission or a
// source there emits.
func tieLinks() []topo.LinkSpec {
	var links []topo.LinkSpec
	for i, name := range []string{"a", "b", "c"} {
		links = append(links, topo.LinkSpec{Name: name, From: fmt.Sprint("n", i), To: fmt.Sprint("n", i+1),
			Sched: core.New(), Proc: server.NewConstantRate(1 << 20), PropDelay: 9.0 / (1 << 12)})
	}
	return links
}

var tieFlows = []struct {
	topo.FlowSpec
	rate, pkt float64
}{
	{topo.FlowSpec{Flow: 1, Weight: 2, Route: []string{"a", "b", "c"}}, 1 << 19, 1 << 10},
	{topo.FlowSpec{Flow: 2, Weight: 1, Route: []string{"a", "b"}}, 1 << 18, 1 << 9},
	{topo.FlowSpec{Flow: 3, Weight: 1, Route: []string{"b", "c"}}, 1 << 18, 1 << 10},
	{topo.FlowSpec{Flow: 4, Weight: 1, Route: []string{"b"}}, 1 << 17, 1 << 8},
	{topo.FlowSpec{Flow: 5, Weight: 3, Route: []string{"c"}}, 1 << 18, 1 << 9},
}

// tieRun builds the tandem with build, starts one CBR source per flow on
// its entry queue, runs it and returns the digest.
func tieRun(t *testing.T, build func([]topo.LinkSpec, []topo.FlowSpec) (*topo.Sharded, error), run func(*topo.Sharded)) string {
	var flows []topo.FlowSpec
	for _, f := range tieFlows {
		flows = append(flows, f.FlowSpec)
	}
	s, err := build(tieLinks(), flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tieFlows {
		(&source.CBR{Q: s.EntryQueue(f.Flow), Out: s.Entry(f.Flow), Flow: f.Flow,
			Rate: f.rate, PktBytes: f.pkt, Start: float64(f.Flow) / (1 << 12), Stop: 0.25}).Run()
	}
	run(s)
	return s.Digest()
}

// TestShardedReplaysBuildAtTies: on the tie-heavy tandem, BuildSharded at
// Run(1), Run(2) and Run(4) gives the Digest of Build on one queue. Frames
// cross queues at their departure instants, so each tie is broken as one
// shared queue breaks it; lockstep windows of one propagation delay broke
// some of them the other way.
func TestShardedReplaysBuildAtTies(t *testing.T) {
	q := &eventq.Queue{}
	one := tieRun(t, func(l []topo.LinkSpec, f []topo.FlowSpec) (*topo.Sharded, error) { return topo.Build(q, l, f) },
		func(*topo.Sharded) { q.Run() })
	for _, workers := range []int{1, 2, 4} {
		if got := tieRun(t, topo.BuildSharded, func(s *topo.Sharded) { s.Run(workers) }); got != one {
			t.Errorf("BuildSharded Run(%d) differs from Build on one queue:\n%s\nvs\n%s", workers, got, one)
		}
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

	// Any link may have zero propagation delay, one that feeds another
	// queue too.
	for i := range 2 {
		links := mk()
		links[i].PropDelay = 0
		if _, err := topo.BuildSharded(links, flows); err != nil {
			t.Errorf("zero-PropDelay link %s rejected: %v", links[i].Name, err)
		}
	}
	// Routes that close a cycle between queues, alone or together.
	back := append(mk(), topo.LinkSpec{Name: "c", From: "z", To: "x", Sched: core.New(), Proc: server.NewConstantRate(1e6)})
	for _, fs := range [][]topo.FlowSpec{
		{{Flow: 1, Weight: 1, Route: []string{"a", "b", "c", "a"}}},
		{{Flow: 1, Weight: 1, Route: []string{"a", "b"}}, {Flow: 2, Weight: 1, Route: []string{"b", "c", "a"}}},
	} {
		if _, err := topo.BuildSharded(back, fs); !errors.Is(err, topo.ErrCycle) {
			t.Errorf("cycle %v: %v, want ErrCycle", fs, err)
		}
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

// TestShardedSingleLinkOnePass: a single link with fewer than 512 events
// runs in one pass, on any number of workers.
func TestShardedSingleLinkOnePass(t *testing.T) {
	s, err := topo.BuildSharded(
		[]topo.LinkSpec{{Name: "only", From: "a", To: "b", Sched: core.New(), Proc: server.NewConstantRate(1e5)}},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"only"}}},
	)
	if err != nil {
		t.Fatal(err)
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
// and removed between Runs. The result stays independent of workers, and a
// refused AddFlow — one closing a cycle between queues, or with a custom
// sink — registers nothing: the next Run still runs every queue.
func TestShardedLiveFlowsBetweenRuns(t *testing.T) {
	links := func() []topo.LinkSpec {
		return []topo.LinkSpec{
			{Name: "in1", From: "s1", To: "m", Sched: core.New(), Proc: server.NewConstantRate(1e5), PropDelay: 0.004},
			{Name: "in2", From: "s2", To: "m", Sched: core.New(), Proc: server.NewConstantRate(1e5), PropDelay: 0.001},
			{Name: "in3", From: "s3", To: "m", Sched: core.New(), Proc: server.NewConstantRate(1e5)},
			{Name: "out", From: "m", To: "d", Sched: core.New(), Proc: server.NewConstantRate(5e4), PropDelay: 0.002},
			{Name: "back", From: "d", To: "s2", Sched: core.New(), Proc: server.NewConstantRate(1e5)},
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
		burst(s, 1)
		s.Run(workers)
		first := s.Sink(1).Count(1)
		if err := s.RemoveFlow(1); err != nil {
			t.Fatalf("RemoveFlow between Runs: %v", err)
		}
		if err := s.AddFlow(topo.FlowSpec{Flow: 2, Weight: 1, Route: []string{"in2", "out"}}); err != nil {
			t.Fatalf("AddFlow between Runs: %v", err)
		}
		for _, tc := range []struct {
			fs   topo.FlowSpec
			want error
		}{
			{topo.FlowSpec{Flow: 3, Weight: 1, Route: []string{"out", "back", "in2"}}, topo.ErrCycle},
			{topo.FlowSpec{Flow: 3, Weight: 1, Route: []string{"in3", "out", "back", "in2", "out"}}, topo.ErrCycle},
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
			if s.Sink(3) != nil {
				t.Errorf("refused AddFlow(%v) created a sink", fs.Route)
			}
		}
		burst(s, 2)
		s.Run(workers)
		if first != 30 || s.Sink(2).Count(2) != 30 {
			t.Errorf("delivered %d then %d; want 30, 30", first, s.Sink(2).Count(2))
		}
		return s.Digest()
	}
	if serial, parallel := run(1), run(4); serial != parallel {
		t.Errorf("Run(1) and Run(4) differ:\n--- 1 ---\n%s--- 4 ---\n%s", serial, parallel)
	}
}

// TestShardedFrameReuse runs a three-domain chain fed by Poisson sources on
// one worker and on two. Flow 1 crosses every domain, so its frames end at
// a sink of another queue than its source's and are left to the garbage
// collector; flows 2–4 stay on one link, so their sink hands each frame
// back to its source. Under -race this is the check that no frame pool is
// touched by two workers; the digests must match, and the pointers the
// entry links see (a test hook on Link.OnEnqueue) show which flows reuse.
func TestShardedFrameReuse(t *testing.T) {
	run := func(workers int) (digest string, sent, distinct map[int]int) {
		links := []topo.LinkSpec{
			{Name: "a", From: "n0", To: "n1", Sched: core.New(), Proc: server.NewConstantRate(1e6), PropDelay: 0.0011},
			{Name: "b", From: "n1", To: "n2", Sched: core.New(), Proc: server.NewConstantRate(1e6), PropDelay: 0.0013},
			{Name: "c", From: "n2", To: "n3", Sched: core.New(), Proc: server.NewConstantRate(1e6), PropDelay: 0.0017},
		}
		flows := []topo.FlowSpec{
			{Flow: 1, Weight: 1, Route: []string{"a", "b", "c"}},
			{Flow: 2, Weight: 1, Route: []string{"a"}},
			{Flow: 3, Weight: 1, Route: []string{"b"}},
			{Flow: 4, Weight: 1, Route: []string{"c"}},
		}
		s, err := topo.BuildSharded(links, flows)
		if err != nil {
			t.Fatal(err)
		}
		// One map per link: each is written only by its link's domain.
		seen := map[string]map[*sim.Frame]int{}
		for _, ls := range links {
			m := map[*sim.Frame]int{}
			seen[ls.Name] = m
			l := s.Link(ls.Name)
			prev := l.OnEnqueue
			l.OnEnqueue = func(f *sim.Frame, now float64) {
				if prev != nil {
					prev(f, now)
				}
				m[f] = f.Flow
			}
		}
		for _, fs := range flows {
			(&source.Poisson{Q: s.EntryQueue(fs.Flow), Out: s.Entry(fs.Flow), Flow: fs.Flow,
				Rate: 3e5, PktBytes: 500, Stop: 2, Rng: rand.New(rand.NewSource(int64(fs.Flow)))}).Run()
		}
		s.Run(workers)
		sent, distinct = map[int]int{}, map[int]int{}
		for _, fs := range flows {
			sent[fs.Flow] = int(s.Sink(fs.Flow).Count(fs.Flow))
			for _, flow := range seen[fs.Route[0]] {
				if flow == fs.Flow {
					distinct[fs.Flow]++
				}
			}
		}
		return s.Digest(), sent, distinct
	}
	d1, _, _ := run(1)
	d2, sent, distinct := run(2)
	if d1 != d2 {
		t.Fatalf("Run(2) digest differs from Run(1):\n%s\nvs\n%s", d2, d1)
	}
	if sent[1] < 500 || distinct[1] != sent[1] {
		t.Errorf("flow 1 (crosses domains): %d frames through %d distinct, want no reuse", sent[1], distinct[1])
	}
	for flow := 2; flow <= 4; flow++ {
		if sent[flow] < 500 || distinct[flow] > 50 {
			t.Errorf("flow %d (one domain): %d frames through %d distinct, want reuse", flow, sent[flow], distinct[flow])
		}
	}
}
