package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
)

// Residual reproduces the §2.3 two-priority analysis: high-priority
// traffic shaped by a (σ, ρ) leaky bucket leaves the low-priority SFQ
// flows a residual server that is Fluctuation Constrained with parameters
// (C − ρ, σ). The experiment measures the worst delay of the low-priority
// flows against the Theorem-4 bound evaluated with that FC pair.
func Residual(seed int64) *Result {
	r := newResult("residual", "§2.3 — residual capacity under priority traffic is FC(C−ρ, σ)")

	const (
		c        = units.Byte * 10000 // 10 KB/s link
		rho      = 4000.0
		sigma    = 2000.0
		pkt      = 100.0
		duration = 60.0
	)
	q := &eventq.Queue{}
	rng := rand.New(rand.NewSource(seed))

	// Two low-priority flows; Σ r = C − ρ (full admission of the residual).
	// Iterate flows in a fixed order everywhere below: the loops consume rng
	// and schedule events, so map-range order would make the output
	// nondeterministic across runs.
	flows := []int{2, 3}
	weights := map[int]float64{2: 2000, 3: 4000}
	prio := priorityTree("pifo-sfq", sched.Config{}, flowLeaf(1, rho), flowLeaf(2, weights[2]), flowLeaf(3, weights[3]))

	sink := sim.NewSink(q)
	link := sim.NewLink(q, "prio", prio, server.NewConstantRate(c), sink)
	mon := sim.MonitorAll(link)

	// High-priority: bursty on-off traffic shaped to (σ, ρ).
	shaper := source.NewLeakyBucket(q, link, sigma, rho)
	(&source.OnOff{Q: q, Out: shaper, Flow: 1, PeakRate: c, PktBytes: pkt,
		MeanOn: 0.2, MeanOff: 0.4, Start: 0, Stop: duration,
		Rng: rand.New(rand.NewSource(seed + 1))}).Run()

	// Low-priority flows: spaced packets so EAT = arrival for most, with
	// occasional bursts.
	type pktRec struct {
		at    float64
		bytes float64
	}
	arrivals := map[int][]pktRec{}
	for _, f := range flows {
		w := weights[f]
		t := 0.1 + rng.Float64()*0.05
		for t < duration {
			b := pkt
			arrivals[f] = append(arrivals[f], pktRec{t, b})
			t += b / w * (1 + rng.Float64()) // at or below the reserved rate
		}
	}
	for _, f := range flows {
		f := f
		for _, rec := range arrivals[f] {
			rec := rec
			q.At(rec.at, func() {
				link.Deliver(&sim.Frame{Flow: f, Bytes: rec.bytes, Created: q.Now()})
			})
		}
	}
	q.Run()

	// Theorem 4 with the residual FC parameters: β = Σ_{n≠f} l/C' + l/C' + σ/C'.
	resFC := server.FCParams{C: c - rho, Delta: sigma}
	violations := 0
	worstSlack := stats.Welford{}
	recs := mon.ServiceRecords()
	for _, f := range flows {
		var chain qos.EAT
		eats := make([]float64, len(arrivals[f]))
		for i, rec := range arrivals[f] {
			eats[i] = chain.Next(rec.at, rec.bytes, weights[f])
		}
		i := 0
		for _, sr := range recs {
			if sr.Flow != f {
				continue
			}
			other := pkt // the other low-priority flow's l_max
			bound := qos.SFQDelayBound(resFC, eats[i], sr.Bytes, other)
			// Non-preemption of a high-priority... the FC model folds the
			// priority service into δ = σ; one in-service low packet can
			// add l/C' once more — keep the strict Theorem 4 form and
			// count violations.
			if sr.End > bound+1e-9 {
				violations++
			}
			worstSlack.Add(bound - sr.End)
			i++
		}
	}
	r.addf("link C=%.0f B/s, priority leaky bucket (σ=%.0f, ρ=%.0f) ⇒ residual FC(%.0f, %.0f)",
		c, sigma, rho, resFC.C, resFC.Delta)
	r.addf("low-priority packets: %d   Theorem-4 violations with residual FC: %d", int(worstSlack.N()), violations)
	r.addf("slack to bound: min %.1f ms, mean %.1f ms",
		units.ToMillis(worstSlack.Min()), units.ToMillis(worstSlack.Mean()))
	r.set("violations", float64(violations))
	r.set("packets", float64(worstSlack.N()))
	r.set("min_slack_ms", units.ToMillis(worstSlack.Min()))
	return r
}

// E2EConfig parameterizes the end-to-end composition experiment.
type E2EConfig struct {
	Hops  int // default 5
	Seed  int64
	Scale float64 // duration multiplier (1.0 = 60 s)
}

// EndToEndBound demonstrates Corollary 1 on a K-hop chain of SFQ servers:
// a (σ, ρ)-shaped flow crosses K hops with independent cross traffic; the
// measured worst end-to-end delay is compared against the deterministic
// composition (all-FC path) of eq (64) plus the A.5 leaky-bucket term.
func EndToEndBound(cfg E2EConfig) *Result {
	if cfg.Hops == 0 {
		cfg.Hops = 5
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	r := newResult("e2ebound", "Corollary 1 — end-to-end delay across a chain of SFQ servers")

	const (
		pkt  = 500.0
		prop = 0.002
	)
	c := units.Mbps(1)
	rFlow := 0.2 * c
	sigma := 4 * pkt
	duration := 60.0 * cfg.Scale

	rng := rand.New(rand.NewSource(cfg.Seed))

	// One link per hop, h1…hK, each on its own queue: flow 1 crosses them
	// all, and each hop's two cross flows cross only that hop.
	links := make([]topo.LinkSpec, cfg.Hops)
	route := make([]string, cfg.Hops)
	flows := []topo.FlowSpec{{Flow: 1, Weight: rFlow, Route: route}}
	for h := 1; h <= cfg.Hops; h++ {
		route[h-1] = fmt.Sprintf("h%d", h)
		links[h-1] = topo.LinkSpec{Name: route[h-1], From: fmt.Sprintf("n%d", h-1), To: fmt.Sprintf("n%d", h),
			Sched: core.New(), Proc: server.NewConstantRate(c), PropDelay: prop}
		for _, cf := range []int{100*h + 2, 100*h + 3} {
			flows = append(flows, topo.FlowSpec{Flow: cf, Weight: 0.4 * c, Route: []string{route[h-1]}})
		}
	}
	net, err := topo.BuildSharded(links, flows)
	if err != nil {
		panic(err)
	}
	var e2e stats.Sample
	net.Sink(1).OnReceive = func(f *sim.Frame, now float64) { e2e.Add(now - f.Created) }

	// Sources are started, and draw their seeds, from the last hop back.
	for h := cfg.Hops; h >= 1; h-- {
		for _, cf := range []int{100*h + 2, 100*h + 3} {
			(&source.Poisson{Q: net.EntryQueue(cf), Out: net.Entry(cf), Flow: cf, Rate: 0.39 * c, PktBytes: pkt,
				Start: 0, Stop: duration, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
		}
	}
	q, firstHop := net.EntryQueue(1), net.Entry(1)
	restamp := sim.ConsumerFunc(func(f *sim.Frame) {
		f.Created = q.Now()
		firstHop.Deliver(f)
	})
	shaper := source.NewLeakyBucket(q, restamp, sigma, rFlow)
	(&source.OnOff{Q: q, Out: shaper, Flow: 1, PeakRate: c, PktBytes: pkt,
		MeanOn: 0.1, MeanOff: 0.5, Start: 0, Stop: duration,
		Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
	net.Run(0)

	var specs []qos.ServerSpec
	for h := 0; h < cfg.Hops; h++ {
		specs = append(specs, qos.SFQServerSpec(c, 0, pkt, 2*pkt, 0, 0, prop))
	}
	d, btot, _ := qos.EndToEnd(specs)
	bound := qos.LeakyBucketE2EDelay(sigma, rFlow, pkt, d)

	r.addf("%d hops, measured packets %d", cfg.Hops, e2e.N())
	r.addf("measured delay: avg %.2f ms, p99 %.2f ms, max %.2f ms",
		units.ToMillis(e2e.Mean()), units.ToMillis(e2e.Percentile(99)), units.ToMillis(e2e.Max()))
	r.addf("Corollary 1 bound: %.2f ms (deterministic; B_tot = %.0f)", units.ToMillis(bound), btot)
	r.set("measured_max_ms", units.ToMillis(e2e.Max()))
	r.set("bound_ms", units.ToMillis(bound))
	r.set("packets", float64(e2e.N()))
	return r
}

// GenRate demonstrates the §2.3 generalized per-packet rate allocation:
// a VBR-like flow assigns each packet the rate matching its frame's size
// so large frames get proportionally more virtual-time budget. The
// experiment validates the Σ R_n(v) <= C precondition with the rate
// function machinery and then checks the Theorem-4 delay bound computed
// with per-packet EAT rates.
func GenRate(seed int64) *Result {
	r := newResult("genrate", "§2.3 — generalized SFQ with per-packet (variable) rates")

	const (
		c        = 10000.0
		duration = 30.0
	)
	rng := rand.New(rand.NewSource(seed))
	s := core.New()
	// Flow 1: "video" with per-packet rates; flow 2: constant-rate data.
	if err := s.AddFlow(1, 4000); err != nil { // nominal weight, overridden per packet
		panic(err)
	}
	if err := s.AddFlow(2, 4000); err != nil {
		panic(err)
	}

	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "gen", s, server.NewConstantRate(c), sink)
	mon := sim.MonitorAll(link)

	// Video: a frame every 1/24 s whose size swings ×4; packets get
	// rate proportional to their size so each frame's virtual-time
	// footprint is one frame interval (the efficient-utilization policy
	// §2.3 motivates). Budget: video may use up to 60% of C.
	type sent struct {
		at, bytes, rate float64
	}
	var videoSent []sent
	frame := 0
	for t := 0.01; t < duration; t += 1.0 / 24 {
		frame++
		size := 100 + 150*float64(frame%4) // 100..550 bytes
		rate := size * 24                  // finish tag spans one frame time
		if rate > 0.6*c {
			rate = 0.6 * c
		}
		videoSent = append(videoSent, sent{t, size, rate})
	}
	for _, v := range videoSent {
		v := v
		q.At(v.at, func() {
			link.Deliver(&sim.Frame{Flow: 1, Bytes: v.bytes, Rate: v.rate, Created: q.Now()})
		})
	}
	// Data: Poisson at 30% of C.
	(&source.Poisson{Q: q, Out: link, Flow: 2, Rate: 0.3 * c, PktBytes: 200,
		Start: 0, Stop: duration, Rng: rng}).Run()
	q.Run()

	// Validate the capacity precondition from the stamped tags.
	var tagged []qos.TaggedPacket
	var chain1 qos.EAT
	eats := make([]float64, len(videoSent))
	for i, v := range videoSent {
		eats[i] = chain1.Next(v.at, v.bytes, v.rate)
		tagged = append(tagged, qos.TaggedPacket{
			Flow: 1, Start: eats[i], Finish: eats[i] + v.bytes/v.rate, Rate: v.rate})
	}
	maxAgg, _ := qos.MaxAggregateRate(tagged)
	ok := qos.CapacityRespected(tagged, c)
	r.addf("video per-packet rates: max aggregate R(v) = %.0f B/s of C = %.0f (respected: %v)",
		maxAgg, c, ok)
	r.set("max_aggregate", maxAgg)

	// Theorem 4 with per-packet rates (EAT uses r_f^j).
	violations := 0
	worst := 0.0
	i := 0
	for _, sr := range mon.ServiceRecords() {
		if sr.Flow != 1 {
			continue
		}
		bound := qos.SFQDelayBound(server.FCParams{C: c}, eats[i], sr.Bytes, 200)
		if sr.End > bound+1e-9 {
			violations++
		}
		if d := sr.End - eats[i]; d > worst {
			worst = d
		}
		i++
	}
	r.addf("video packets %d, Theorem-4 violations %d, worst delay beyond EAT %.1f ms",
		i, violations, units.ToMillis(worst))
	r.set("violations", float64(violations))
	r.set("packets", float64(i))
	return r
}
