package experiments

import (
	"math/rand"

	"repro/internal/eventq"
	"repro/internal/hier"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
	"repro/internal/vbr"
)

// Fig1Config parameterizes the Fig 1 reproduction. Scale multiplies the
// simulated duration (1.0 reproduces the paper's one-second run).
type Fig1Config struct {
	Scale float64
	Seed  int64
}

// Fig1Series is the data behind Figure 1(b): for one scheduler, the
// arrival times of each TCP source's packets at the destination, plus the
// senders' transport-level statistics.
type Fig1Series struct {
	Sched    string
	Arrivals map[int][]float64 // flow -> destination arrival times
	Sent     map[int]int64
	Timeouts map[int]int64
	Retrans  map[int]int64
	Drops    int64
}

// Fig1b reproduces the Section 2.1 experiment (Figure 1): three flows
// share a 2.5 Mb/s switch output. Source 1 is MPEG VBR video
// (1.21 Mb/s average, 50 B cells) served at strict priority, so the
// residual capacity seen by the two TCP Reno sources (200 B packets)
// fluctuates. Source 3 starts 500 ms after sources 1 and 2. The paper's
// observation: under WFQ (fluid clock run at the full link rate) source 2
// keeps an enormous head start — the destination receives 333 vs 249
// packets in the 500 ms after source 3 starts, and only 2 source-3 packets
// arrive in the first 435 ms — while SFQ splits the residual 189 vs 190.
func Fig1b(cfg Fig1Config) *Result {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	r := newResult("fig1b", "Figure 1(b) — TCP packets received under priority VBR video, WFQ vs SFQ")

	duration := 1.0 * cfg.Scale
	activate := duration / 2 // source 3 starts halfway, as in the paper
	window := duration / 2

	names := []string{"WFQ", "SFQ"}
	runs := make([]*Fig1Series, len(names))
	sweep(len(runs), func(i int) { runs[i] = runFig1(cfg, names[i], duration, activate) })
	for i, name := range names {
		series := runs[i]
		n2 := countIn(series.Arrivals[2], activate, activate+window)
		n3 := countIn(series.Arrivals[3], activate, activate+window)
		early3 := countIn(series.Arrivals[3], activate, activate+0.435*cfg.Scale)
		r.addf("%-4s  src2 in window: %4d   src3 in window: %4d   src3 in first 435 ms: %4d",
			name, n2, n3, early3)
		r.set("src2_"+name, float64(n2))
		r.set("src3_"+name, float64(n3))
		r.set("early3_"+name, float64(early3))
	}
	r.addf("paper: WFQ 333 vs 249 (2 early); SFQ 189 vs 190 (145 early)")
	return r
}

// Fig1bSeries returns the raw destination arrival series for plotting.
func Fig1bSeries(cfg Fig1Config, schedName string) *Fig1Series {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	duration := 1.0 * cfg.Scale
	return runFig1(cfg, schedName, duration, duration/2)
}

func countIn(ts []float64, lo, hi float64) int {
	n := 0
	for _, t := range ts {
		if t >= lo && t < hi {
			n++
		}
	}
	return n
}

// priorityTree is strict priority of a FIFO class holding flow leaf hi over
// a class of discipline low holding the leaves lo: the priority rank
// function at the root of a two-sink tree. The SFQ discipline as a sink is
// "pifo-sfq"; a class named "sfq" over flow leaves is the tree's native SFQ
// interior instead.
func priorityTree(low string, cfg sched.Config, hi *hier.Spec, lo ...*hier.Spec) *hier.Tree {
	t, err := hier.Build(&hier.Spec{Name: "priority", Children: []*hier.Spec{
		{Name: "fifo", Weight: 1, Children: []*hier.Spec{hi}},
		{Name: low, Weight: 1, Children: lo},
	}}, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func flowLeaf(f int, w float64) *hier.Spec { return &hier.Spec{IsFlow: true, Flow: f, Weight: w} }

// runFig1 wires the Fig 1 topology and runs it.
//
//	video src (flow 1, VBR, priority) ─┐
//	tcp src 2 ──────────────────────────┤ bottleneck 2.5 Mb/s ──> destination
//	tcp src 3 (starts at `activate`) ──┘        │
//	        ▲───────────── ack path 10 Mb/s ◄───┘
func runFig1(cfg Fig1Config, schedName string, duration, activate float64) *Fig1Series {
	const (
		videoCell = 50.0
		mss       = 200.0
		ackRate   = 10e6 / 8 // 10 Mb/s ack path
		propFwd   = 0.001
		propRev   = 0.001
	)
	linkRate := units.Mbps(2.5)

	q := &eventq.Queue{}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Low-priority discipline for the TCP flows.
	low := map[string]string{"WFQ": "wfq", "SFQ": "pifo-sfq"}[schedName]
	if low == "" {
		panic("fig1: unknown scheduler " + schedName)
	}
	// "The WFQ implementation used the link capacity to compute the finish
	// tags" — i.e. the fluid clock runs at the full 2.5 Mb/s even though
	// the video leaves less than that.
	prio := priorityTree(low, sched.Config{AssumedCapacity: linkRate}, flowLeaf(1, 1), flowLeaf(2, 1), flowLeaf(3, 1))

	// Destination: demultiplexes TCP data to per-flow receivers, records
	// arrival times of every TCP packet, swallows video cells.
	arrivals := map[int][]float64{2: nil, 3: nil}
	rcvs := map[int]*tcp.Receiver{}
	dest := sim.ConsumerFunc(func(f *sim.Frame) {
		if f.Flow == 1 {
			return
		}
		arrivals[f.Flow] = append(arrivals[f.Flow], q.Now())
		rcvs[f.Flow].Deliver(f)
	})

	bottleneck := sim.NewLink(q, "bottleneck", prio, server.NewConstantRate(linkRate), dest)
	bottleneck.PropDelay = propFwd
	// Deep output buffer (the REAL testbed did not drop in this run):
	// the WFQ pathology needs source 2's standing window-limited queue of
	// old-tagged packets to survive until source 3 arrives.
	bottleneck.BufferBytes = 0

	// Ack path back to the senders.
	snds := map[int]*tcp.Sender{}
	ackSched := sched.NewFIFO()
	ackLink := sim.NewLink(q, "acks", ackSched, server.NewConstantRate(ackRate),
		sim.ConsumerFunc(func(f *sim.Frame) { snds[f.Flow].Deliver(f) }))
	ackLink.PropDelay = propRev

	for _, f := range []int{2, 3} {
		if err := ackSched.AddFlow(f, 1); err != nil {
			panic(err)
		}
		rcvs[f] = tcp.NewReceiver(q, ackLink, f)
	}
	// ~68 KB windows (≈ 340 MSS): at the ~1.3 Mb/s residual rate the
	// window-limited standing queue drains in ≈ 0.4 s, which is what the
	// paper's 435 ms starvation figure under WFQ corresponds to.
	// MinRTO 1 s (classic BSD): queueing delay under the full window
	// approaches 0.4 s, which would trip a 200 ms RTO floor spuriously.
	snds[2] = &tcp.Sender{Q: q, Out: bottleneck, Flow: 2, MSS: mss, MaxCwnd: 340, MinRTO: 1, Start: 0}
	snds[3] = &tcp.Sender{Q: q, Out: bottleneck, Flow: 3, MSS: mss, MaxCwnd: 340, MinRTO: 1, Start: activate}
	snds[2].Run()
	snds[3].Run()

	// Video source: synthetic MPEG trace at the paper's 1.21 Mb/s mean.
	// Scene modulation is kept mild: over a one-second run the residual
	// capacity should fluctuate at the frame scale around the mean, not
	// swing by 2x (the full-variance model is for the longer workloads).
	frames := int(vbr.Config{}.FPSOrDefault()*duration) + 48
	trace := vbr.Generate(vbr.Config{
		MeanRate:    units.Mbps(1.21),
		SceneLevels: []float64{0.9, 1.0, 1.1},
	}, frames, rng)
	video := &vbr.Source{Q: q, Out: bottleneck, Flow: 1, Trace: trace,
		PktBytes: videoCell, Start: 0, Stop: duration, Pace: true}
	video.Run()

	q.RunUntil(duration)
	out := &Fig1Series{
		Sched:    schedName,
		Arrivals: arrivals,
		Sent:     map[int]int64{},
		Timeouts: map[int]int64{},
		Retrans:  map[int]int64{},
		Drops:    bottleneck.Drops(),
	}
	for f, s := range snds {
		out.Sent[f] = s.Sent()
		out.Timeouts[f] = s.Timeouts()
		out.Retrans[f] = s.Retransmissions()
	}
	return out
}
