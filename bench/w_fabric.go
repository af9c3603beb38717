package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topo"
)

// fabric-wide: a tandem of fabricHops SFQ links, each carrying fabricFlows
// Poisson flows, compiled with topo.BuildSharded (one event queue per link,
// lockstep windows of one propagation delay). Three quarters of a link's
// flows run end to end; the rest are local to that hop — without them only
// the first of several equal-rate links would ever queue, and only its
// domain would host sources. The link rate is 1 Gb/s and on every link the
// flows' reserved rates add up to it exactly, so Theorem 4 applies; each
// flow offers fabricLoad of its reservation. The simulated span is short
// enough for >= 9 rebuilt-and-run trials in one benchmark run.
const (
	fabricHops    = 4
	fabricFlows   = 2000  // per link
	fabricLocal   = 500   // of which local to the hop
	fabricRate    = 125e6 // bytes/s
	fabricLoad    = 0.95
	fabricPkt     = 500.0
	fabricProp    = 1e-3
	fabricSimSecs = 0.1
	fabricSampled = 16 // flows whose hop-1 delay is checked against Theorem 4
	// At this load two given flows are seldom backlogged together, so
	// fairness is measured over every pair of fabricFairFlows flows; pairs
	// that never overlap cost nothing to check.
	fabricFairFlows = 64
)

type fabricInputs struct {
	hops    int
	perLink int // flows on each link
	through int // flows 0..through-1 cross every hop; the rest are local
	simSecs float64
	// rates is the reserved rate per flow. Flow through+h*local+i is the
	// i-th local flow of hop h; every hop's locals have the same rates, so
	// every link's reservations sum to fabricRate.
	rates    []float64
	subseeds []int64 // one rng seed per flow's Poisson source
	sampled  []int   // flows whose hop-1 delay is checked
	fair     []int   // flows whose pairwise last-hop fairness is checked
}

func genFabricInputs(e *env) *fabricInputs {
	rng := rand.New(rand.NewSource(e.seed))
	in := &fabricInputs{
		hops: e.pick(fabricHops, 2), perLink: e.pick(fabricFlows, 128),
		simSecs: e.pickf(fabricSimSecs, 0.05),
	}
	local := in.perLink * fabricLocal / fabricFlows
	in.through = in.perLink - local
	in.rates = make([]float64, in.through+in.hops*local)
	sum := 0.0
	for f := 0; f < in.perLink; f++ { // the through flows and hop 0's locals
		in.rates[f] = float64(1 + rng.Intn(4))
		sum += in.rates[f]
	}
	for f := 0; f < in.perLink; f++ {
		in.rates[f] *= fabricRate / sum
	}
	for h := 1; h < in.hops; h++ {
		copy(in.rates[in.through+h*local:], in.rates[in.through:in.perLink])
	}
	in.subseeds = make([]int64, len(in.rates))
	for f := range in.subseeds {
		in.subseeds[f] = rng.Int63()
	}
	// Delay is checked on through flows at hop 1, where their arrivals are
	// the source's own; fairness on flows of the last hop, local or not.
	in.sampled = rng.Perm(in.through)[:fabricSampled]
	for _, i := range rng.Perm(in.perLink)[:fabricFairFlows] {
		if i >= in.through {
			i += (in.hops - 1) * local
		}
		in.fair = append(in.fair, i)
	}
	e.hashFloats(in.rates...)
	for _, s := range in.subseeds {
		e.hashFloats(float64(s))
	}
	e.hashInts(in.fair...)
	return in
}

func hopName(i int) string { return "hop" + strconv.Itoa(i+1) }

// entryHop returns the hop at which flow f enters: the first for a through
// flow, its own for a local one.
func (in *fabricInputs) entryHop(f int) int {
	if f < in.through {
		return 0
	}
	return (f - in.through) / (in.perLink - in.through)
}

// route returns the links flow f crosses.
func (in *fabricInputs) route(f int, all []string) []string {
	if f < in.through {
		return all
	}
	return all[in.entryHop(f) : in.entryHop(f)+1]
}

type fabricInst struct {
	e       *env
	in      *fabricInputs
	s       *topo.Sharded
	workers int
	arrived map[int][]float64 // hop-1 arrival times of the sampled flows
	main    *track
}

func setupFabric(e *env, i int) instance {
	in := genFabricInputs(e)
	fi := &fabricInst{e: e, in: in, workers: 2, arrived: make(map[int][]float64)}
	if i == 0 || e.tr != nil {
		// The first copy is the serial reference the two-worker runs must
		// reproduce bit for bit; a traced copy runs serially so that span
		// totals and wall time describe the same thing.
		fi.workers = 1
	}
	links := make([]topo.LinkSpec, in.hops)
	route := make([]string, in.hops)
	var tracks []*track
	for h := range links {
		var sch sched.Interface = sched.MustNew("sfq")
		var proc server.Process = server.NewConstantRate(fabricRate)
		if e.tr != nil {
			tk := e.tr.track(spTopoRun)
			tracks = append(tracks, tk)
			sch = &tracedSched{Interface: sch, t: tk, enqRoot: spTopoRun, deqRoot: spTopoRun}
			proc = &tracedProc{Process: proc, t: tk}
		}
		route[h] = hopName(h)
		links[h] = topo.LinkSpec{
			Name: route[h], From: "n" + strconv.Itoa(h), To: "n" + strconv.Itoa(h+1),
			Sched: sch, Proc: proc, PropDelay: fabricProp,
		}
	}
	flows := make([]topo.FlowSpec, len(in.rates))
	for f := range flows {
		flows[f] = topo.FlowSpec{Flow: f, Weight: in.rates[f], Route: in.route(f, route)}
	}
	s, err := topo.BuildSharded(links, flows)
	if err != nil {
		e.q.check(false, "fabric-wide: BuildSharded: %v", err)
		return fi
	}
	fi.s = s
	sampled := make(map[int]bool, len(in.sampled))
	for _, f := range in.sampled {
		sampled[f] = true
	}
	for f := range in.rates {
		out := s.Entry(f)
		if sampled[f] {
			f, entry := f, out
			out = sim.ConsumerFunc(func(fr *sim.Frame) {
				fi.arrived[f] = append(fi.arrived[f], fr.Created)
				entry.Deliver(fr)
			})
		}
		if e.tr != nil {
			out = &tracedConsumer{next: out, t: tracks[in.entryHop(f)]}
		}
		(&source.Poisson{
			Q: s.EntryQueue(f), Out: out, Flow: f,
			Rate: fabricLoad * in.rates[f], PktBytes: fabricPkt,
			Start: 0, Stop: in.simSecs, Rng: rand.New(rand.NewSource(in.subseeds[f])),
		}).Run()
	}
	if e.tr != nil {
		fi.main = e.tr.track("")
	}
	return fi
}

func (fi *fabricInst) trial() (ops, failed int64) {
	if fi.s == nil {
		return 1, 1
	}
	if fi.main != nil {
		fi.main.begin(spTopoRun)
	}
	fi.s.Run(fi.workers)
	if fi.main != nil {
		fi.main.end()
	}
	for h := 0; h < fi.in.hops; h++ {
		l := fi.s.Link(hopName(h))
		ops += l.Delivered()
		failed += l.Drops()
	}
	return ops, failed
}

// close checks conservation and the serial ≡ parallel digest on every copy,
// and the two theorems on the serial copy (the digest makes the others
// identical).
func (fi *fabricInst) close() {
	if fi.s == nil {
		return
	}
	q := &fi.e.q
	// Every packet a flow's sink received crossed each link of its route;
	// nothing may be left queued.
	var steps int64
	want := make([]int64, fi.in.hops)
	for f := range fi.in.rates {
		n := fi.s.Sink(f).Count(f)
		for h := 0; h < fi.in.hops; h++ {
			if f < fi.in.through || fi.in.entryHop(f) == h {
				want[h] += n
			}
		}
	}
	for h := 0; h < fi.in.hops; h++ {
		l := fi.s.Link(hopName(h))
		q.check(l.Delivered() == want[h] && l.QueuedFrames() == 0,
			"fabric-wide: %s delivered %d, the sinks of its flows received %d, %d still queued",
			l.Name, l.Delivered(), want[h], l.QueuedFrames())
		steps += int64(fi.s.Queue(hopName(h)).Steps())
	}

	sum := sha256.Sum256([]byte(fi.s.Digest()))
	digest := fmt.Sprintf("%x", sum[:8])
	if ref, ok := q.exact["fabric.digest"]; ok {
		q.check(digest == ref, "fabric-wide: Run(%d) digest %s differs from serial %s", fi.workers, digest, ref)
		return
	}
	q.exact["fabric.digest"] = digest
	q.exact["eventq.steps"] = strconv.FormatInt(steps, 10)
	q.exact["topo.windows"] = strconv.FormatInt(fi.s.Windows(), 10)
	q.layer["eventq.steps"] = float64(steps)
	q.layer["topo.windows"] = float64(fi.s.Windows())

	// Theorem 1 at the last hop.
	mon := fi.s.Monitor(hopName(fi.in.hops - 1))
	worstFair := 0.0
	recs := mon.ServiceRecords()
	backlogged := make([][]sim.Interval, len(fi.in.fair))
	for i, f := range fi.in.fair {
		backlogged[i] = mon.BackloggedIntervals(f)
	}
	for i, f := range fi.in.fair {
		for j, m := range fi.in.fair[:i] {
			rf, rm := fi.in.rates[f], fi.in.rates[m]
			h := fairness.MaxUnfairness(recs, backlogged[i], backlogged[j], f, m, rf, rm)
			worstFair = math.Max(worstFair, h/qos.SFQFairnessBound(fabricPkt, rf, fabricPkt, rm))
		}
	}
	q.check(worstFair <= 1, "fabric-wide: fair_ratio %.4f > 1 (Theorem 1)", worstFair)
	q.reportFair(worstFair)

	// Theorem 4 at the first hop: departure - EAT against the allowance
	// (sum of the other flows' packets plus this one, at the link rate).
	departed := make(map[int][]float64, len(fi.in.sampled))
	for _, r := range fi.s.Monitor(hopName(0)).ServiceRecords() {
		if _, ok := fi.arrived[r.Flow]; ok {
			departed[r.Flow] = append(departed[r.Flow], r.End)
		}
	}
	fc := server.FCParams{C: fabricRate}
	worstDelay := 0.0
	for _, f := range fi.in.sampled {
		arr, dep := fi.arrived[f], departed[f]
		q.check(len(arr) == len(dep), "fabric-wide: flow %d: %d arrivals, %d departures at hop 1", f, len(arr), len(dep))
		var chain qos.EAT
		for j := 0; j < len(arr) && j < len(dep); j++ {
			eat := chain.Next(arr[j], fabricPkt, fi.in.rates[f])
			bound := qos.SFQDelayBound(fc, eat, fabricPkt, float64(fi.in.perLink-1)*fabricPkt)
			worstDelay = math.Max(worstDelay, (dep[j]-eat)/(bound-eat))
		}
	}
	q.check(worstDelay <= 1, "fabric-wide: delay_ratio %.4f > 1 (Theorem 4)", worstDelay)
	q.reportDelay(worstDelay)
}

// fabricLayers: the reference pass ran serially once and then on two
// workers; the traced pass ran serially.
func fabricLayers(_ *env, ref, _ *measured, sum *traceSummary, out map[string]float64) {
	if ns := ref.nsPerOp(); len(ns) >= 2 {
		out["topo.serial_ns_pkthop"] = ns[0]
		out["topo.w2_ns_pkthop"] = median(ns[1:])
		out["topo.speedup_w2"] = ns[0] / median(ns[1:])
	}
	out["topo.build_ms"] = median(ref.setupS) * 1e3 // building is all that set-up is here
	if run := float64(sum.totalNs(spTopoRun)); run > 0 {
		inside := float64(sum.totalNs(spSchedEnq) + sum.totalNs(spSchedDeq) + sum.totalNs(spServerFin))
		out["sim.run_self_share"] = 1 - inside/run
	}
}

var fabricWide = workloadDef{
	name: "fabric-wide",
	op:   "one packet-hop",
	why: "The other corner of the simulator: 4 sharded hops x 2000 Poisson flows at load 0.95, thousands of " +
		"pending timers per domain queue, the window barrier, Run(2) checked bit for bit against Run(1).",
	setup:        setupFabric,
	layers:       fabricLayers,
	minInstances: 12,
	oneShot:      true,
}
