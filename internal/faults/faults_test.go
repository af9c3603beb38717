package faults_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestModulatedDegradation(t *testing.T) {
	// 100 B/s server at half speed during [1,3): a 200 B transmission
	// started at 0 does 100 B by t=1, then needs 2 real seconds for the
	// second 100 B.
	p := faults.NewModulated(server.NewConstantRate(100),
		[]faults.Episode{{Start: 1, Duration: 2, Factor: 0.5}})
	if got := p.Finish(0, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("pre-episode finish = %v, want 1", got)
	}
	if got := p.Finish(0, 200); math.Abs(got-3) > 1e-9 {
		t.Errorf("degraded finish = %v, want 3", got)
	}
	if got := p.MeanRate(); got != 100 {
		t.Errorf("MeanRate = %v", got)
	}
}

func TestModulatedStall(t *testing.T) {
	// Full stall during [1,3): work freezes for 2 s.
	p := faults.NewModulated(server.NewConstantRate(100),
		[]faults.Episode{{Start: 1, Duration: 2, Factor: 0}})
	if got := p.Finish(0, 200); math.Abs(got-4) > 1e-9 {
		t.Errorf("stall-spanning finish = %v, want 4", got)
	}
	// Starting inside the stall: nothing happens until t=3.
	if got := p.Finish(1.5, 50); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("from-inside-stall finish = %v, want 3.5", got)
	}
}

func TestModulatedFlapping(t *testing.T) {
	// Stall [0.5,1), quarter speed [1.5,2): 150 B at 100 B/s.
	p := faults.NewModulated(server.NewConstantRate(100), []faults.Episode{
		{Start: 0.5, Duration: 0.5, Factor: 0},
		{Start: 1.5, Duration: 0.5, Factor: 0.25},
	})
	// 50 B by 0.5; frozen to 1.0; 50 B more by 1.5; 12.5 B-equivalents in
	// [1.5,2); remaining 37.5 B after 2.0 → 2.375.
	if got := p.Finish(0, 150); math.Abs(got-2.375) > 1e-9 {
		t.Errorf("flapping finish = %v, want 2.375", got)
	}
}

func TestModulatedTerminalStallReturnsNever(t *testing.T) {
	p := faults.NewModulated(server.NewConstantRate(100),
		[]faults.Episode{{Start: 1, Duration: math.Inf(1), Factor: 0}})
	if got := p.Finish(0, 50); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("pre-stall finish = %v, want 0.5", got)
	}
	if got := p.Finish(0, 200); !math.IsInf(got, 1) {
		t.Errorf("terminal stall finish = %v, want Never", got)
	}
	if got := p.Finish(2, 1); !math.IsInf(got, 1) {
		t.Errorf("from-inside-terminal finish = %v, want Never", got)
	}
}

func TestModulatedPropagatesInnerNever(t *testing.T) {
	// The wrapped process itself stalls terminally: Modulated must pass
	// Never through rather than unwarping infinity.
	inner := server.NewPiecewise([]float64{0, 1}, []float64{10, 0})
	p := faults.NewModulated(inner, []faults.Episode{{Start: 0, Duration: 1, Factor: 0.5}})
	if got := p.Finish(0, 100); !math.IsInf(got, 1) {
		t.Errorf("inner Never not propagated: %v", got)
	}
}

func TestModulatedValidation(t *testing.T) {
	cases := [][]faults.Episode{
		{{Start: 1, Duration: 1, Factor: 0.5}, {Start: 1.5, Duration: 1, Factor: 0.5}},     // overlap
		{{Start: 0, Duration: -1, Factor: 0.5}},                                            // bad duration
		{{Start: 0, Duration: 1, Factor: -0.1}},                                            // bad factor
		{{Start: 0, Duration: math.Inf(1), Factor: 0}, {Start: 5, Duration: 1, Factor: 1}}, // inf not last
	}
	for i, eps := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid episodes accepted", i)
				}
			}()
			faults.NewModulated(server.NewConstantRate(1), eps)
		}()
	}
}

func TestRandomEpisodesDeterministic(t *testing.T) {
	a := faults.RandomEpisodes(rand.New(rand.NewSource(7)), 20, 10, 1)
	b := faults.RandomEpisodes(rand.New(rand.NewSource(7)), 20, 10, 1)
	if len(a) == 0 {
		t.Fatal("no episodes generated")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	prevEnd := math.Inf(-1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d differs across identical seeds", i)
		}
		if a[i].Start < prevEnd || a[i].Start < 0 || a[i].Start >= 10 || a[i].Duration <= 0 {
			t.Fatalf("episode %d malformed: %+v", i, a[i])
		}
		prevEnd = a[i].End()
	}
}

func TestRandomOutagesDeterministic(t *testing.T) {
	a := faults.RandomOutages(rand.New(rand.NewSource(3)), 15, 10, 0.5)
	b := faults.RandomOutages(rand.New(rand.NewSource(3)), 15, 10, 0.5)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("counts: %d vs %d", len(a), len(b))
	}
	prevEnd := math.Inf(-1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outage %d differs across identical seeds", i)
		}
		if a[i].At < prevEnd || a[i].Duration <= 0 {
			t.Fatalf("outage %d malformed: %+v", i, a[i])
		}
		prevEnd = a[i].At + a[i].Duration
	}
}

func TestScheduleOutagesOnLink(t *testing.T) {
	// Outage [0.5, 1.5): the frame in transmission is lost, the queued one
	// survives the outage and transmits on recovery.
	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	sch := sched.MustNew("fifo")
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link := sim.NewLink(q, "l", sch, server.NewConstantRate(100), sink)
	faults.ScheduleOutages(q, link, []faults.Outage{{At: 0.5, Duration: 1}})
	var lastEnd float64
	link.OnDepart = func(f *sim.Frame, start, end float64) { lastEnd = end }
	q.At(0, func() {
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		link.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
	})
	q.Run()
	if sink.Count(1) != 1 || link.DropsFor(sim.DropLinkDown) != 1 {
		t.Errorf("delivered=%d link-down drops=%d, want 1 and 1",
			sink.Count(1), link.DropsFor(sim.DropLinkDown))
	}
	if math.Abs(lastEnd-2.5) > 1e-9 {
		t.Errorf("surviving frame finished at %v, want 2.5 (recovery 1.5 + 1 s)", lastEnd)
	}
}

func TestScheduleOutagesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping outages accepted")
		}
	}()
	q := &eventq.Queue{}
	sch := sched.MustNew("fifo")
	link := sim.NewLink(q, "l", sch, server.NewConstantRate(1), sim.NewSink(q))
	faults.ScheduleOutages(q, link, []faults.Outage{
		{At: 0, Duration: 2}, {At: 1, Duration: 1},
	})
}

func TestLossyAccountingAndReplay(t *testing.T) {
	run := func(seed int64) (delivered, drops, loss, corrupt, f1, f2 int64) {
		q := &eventq.Queue{}
		sink := sim.NewSink(q)
		l := faults.NewLossy(rand.New(rand.NewSource(seed)), sink, 0.2, 0.1)
		for i := 0; i < 1000; i++ {
			l.Deliver(&sim.Frame{Flow: 1 + i%2, Bytes: 100})
		}
		return l.Delivered(), l.Drops(),
			l.DropsFor(faults.DropRandomLoss), l.DropsFor(faults.DropCorrupt),
			l.DropsByFlow(1), l.DropsByFlow(2)
	}
	delivered, drops, loss, corrupt, f1, f2 := run(11)
	if delivered+drops != 1000 {
		t.Errorf("delivered %d + drops %d != 1000", delivered, drops)
	}
	if loss+corrupt != drops || f1+f2 != drops {
		t.Errorf("cause split %d+%d and flow split %d+%d must both equal drops %d",
			loss, corrupt, f1, f2, drops)
	}
	if loss == 0 || corrupt == 0 {
		t.Errorf("expected both causes at p=0.2/0.1 over 1000 frames: loss=%d corrupt=%d", loss, corrupt)
	}
	d2, dr2, lo2, co2, _, _ := run(11)
	if d2 != delivered || dr2 != drops || lo2 != loss || co2 != corrupt {
		t.Error("identical seeds produced different loss patterns")
	}
}

func TestLossyZeroProbabilityPassesEverything(t *testing.T) {
	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	l := faults.NewLossy(rand.New(rand.NewSource(1)), sink, 0, 0)
	for i := 0; i < 100; i++ {
		l.Deliver(&sim.Frame{Flow: 1, Bytes: 10})
	}
	if l.Delivered() != 100 || l.Drops() != 0 || sink.Count(1) != 100 {
		t.Errorf("delivered=%d drops=%d sink=%d", l.Delivered(), l.Drops(), sink.Count(1))
	}
}

func TestFlowChurnOnNetwork(t *testing.T) {
	// Churn flow 2 on a live two-hop SFQ route while flow 1 keeps the links
	// loaded. Every churned frame must end up delivered or cause-counted.
	q := &eventq.Queue{}
	mk := func(name, from, to string, rate float64) topo.LinkSpec {
		return topo.LinkSpec{Name: name, From: from, To: to,
			Sched: core.New(), Proc: server.NewConstantRate(rate)}
	}
	var received int64
	churnSink := sim.ConsumerFunc(func(f *sim.Frame) { received++ })
	n, err := topo.Build(q,
		[]topo.LinkSpec{mk("ab", "a", "b", 1000), mk("bc", "b", "c", 2000)},
		[]topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"ab", "bc"}}})
	if err != nil {
		t.Fatal(err)
	}
	const bg = 80
	q.At(0, func() {
		for i := 0; i < bg; i++ {
			n.Entry(1).Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		}
	})
	churn := &faults.FlowChurn{
		Net:    n,
		Spec:   topo.FlowSpec{Flow: 2, Weight: 2, Route: []string{"ab", "bc"}, Sink: churnSink},
		Cycles: 6, Burst: 4, BurstBytes: 100,
		Dwell: 0.05, Retry: 0.02, Gap: 0.01,
	}
	churn.Start(q, 0.001)
	q.Run()
	if churn.Err != nil {
		t.Fatalf("churn error: %v", churn.Err)
	}
	if churn.Completed != 6 {
		t.Fatalf("completed %d cycles, want 6", churn.Completed)
	}
	sent := int64(6 * 4)
	if received+n.DropsByFlow(2) != sent {
		t.Errorf("accounting: received %d + drops %d != sent %d",
			received, n.DropsByFlow(2), sent)
	}
	if got := n.Sink(1).Count(1); got != bg {
		t.Errorf("background flow delivered %d, want %d", got, bg)
	}
}

func TestLossyStageUnwiredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a Lossy stage with no downstream consumer must panic, not drop silently")
		}
	}()
	faults.NewLossy(rand.New(rand.NewSource(1)), nil, 0.5, 0)
}
