package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
)

// EBFTailConfig parameterizes the stochastic end-to-end experiment.
type EBFTailConfig struct {
	Hops  int // default 3
	Seed  int64
	Scale float64 // duration multiplier (1.0 = 120 s)
}

// EBFTail validates Theorem 5 / Corollary 1 on a chain of *stochastic*
// servers: every hop is a random-slotted link (an EBF server at its
// declared rate, Definition 2), and the measured end-to-end delay tail is
// compared against the composed probabilistic bound
//
//	P(L^K > EAT^1 + D + γ) <= (Σ B^n)·e^{−γ/Σ(1/λ^n)}.
//
// Since the declared EBF parameters are conservative (Chernoff), the
// empirical tail must sit below the bound at every γ.
func EBFTail(cfg EBFTailConfig) *Result {
	if cfg.Hops == 0 {
		cfg.Hops = 3
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	r := newResult("ebftail", "Theorem 5 / Corollary 1 — delay tail across EBF (random-slotted) hops")

	const (
		pkt     = 500.0
		prop    = 0.001
		slotDur = 0.02
	)
	cRaw := units.Mbps(1) // true mean rate of each hop
	duration := 120.0 * cfg.Scale

	rng := rand.New(rand.NewSource(cfg.Seed))

	// Build the chain with topo, one queue per hop: hops h1..hK, flow 1
	// rides the whole chain, one cross flow per hop rides just that hop.
	var links []topo.LinkSpec
	var route []string
	var ebf = make([]float64, 0, cfg.Hops) // per-hop declared rate
	var specs []qos.ServerSpec
	for h := 1; h <= cfg.Hops; h++ {
		name := fmt.Sprintf("h%d", h)
		proc := server.NewRandomSlotted(cRaw, slotDur, rand.New(rand.NewSource(cfg.Seed+int64(h))))
		params := proc.EBF()
		links = append(links, topo.LinkSpec{
			Name: name, From: fmt.Sprintf("n%d", h-1), To: fmt.Sprintf("n%d", h),
			Sched: core.New(), Proc: proc, PropDelay: prop,
		})
		route = append(route, name)
		ebf = append(ebf, params.C)
		// Hop spec per Theorem 5: β from the declared (C, δ), tail
		// (B, λ = α·C).
		specs = append(specs, qos.SFQServerSpec(params.C, params.Delta, pkt, pkt, params.B, params.Alpha, prop))
	}
	declared := ebf[0]
	rFlow := 0.25 * declared

	flows := []topo.FlowSpec{{Flow: 1, Weight: rFlow, Route: route}}
	for h := 1; h <= cfg.Hops; h++ {
		flows = append(flows, topo.FlowSpec{
			Flow: 1 + h, Weight: 0.6 * declared, Route: []string{fmt.Sprintf("h%d", h)},
		})
	}
	net, err := topo.BuildSharded(links, flows)
	if err != nil {
		panic(err)
	}
	var delays stats.Sample
	net.Sink(1).OnReceive = func(f *sim.Frame, now float64) { delays.Add(now - f.Created) }

	// Cross traffic per hop (Σ r = 0.85·declared per hop with the flow).
	for h := 1; h <= cfg.Hops; h++ {
		(&source.Poisson{Q: net.EntryQueue(1 + h), Out: net.Entry(1 + h), Flow: 1 + h,
			Rate: 0.55 * declared, PktBytes: pkt,
			Start: 0, Stop: duration, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
	}
	// The observed flow: CBR at its reserved rate, so a frame's EAT is its
	// creation time.
	(&source.CBR{Q: net.EntryQueue(1), Out: net.Entry(1), Flow: 1, Rate: rFlow, PktBytes: pkt,
		Start: 0.01, Stop: duration}).Run()
	net.Run(0)

	d, btot, lambdaInv := qos.EndToEnd(specs)
	r.addf("%d random-slotted hops (declared EBF rate %.0f B/s of true mean %.0f)",
		cfg.Hops, declared, cRaw)
	r.addf("packets %d; deterministic part D = %.1f ms; B_tot = %.1f, Σ1/λ = %.4f s",
		delays.N(), units.ToMillis(d), btot, lambdaInv)

	r.addf("measured delay: avg %.1f ms, p99 %.1f ms, max %.1f ms (all below D: the Chernoff",
		units.ToMillis(delays.Mean()), units.ToMillis(delays.Percentile(99)), units.ToMillis(delays.Max()))
	r.addf("margins in the declared EBF parameters dominate the randomness)")
	r.set("measured_max_ms", units.ToMillis(delays.Max()))
	r.set("D_ms", units.ToMillis(d))

	// Empirical tail vs the Corollary 1 bound on a γ grid scaled to the
	// composed decay constant Σ(1/λ).
	for _, mult := range []float64{0, 1, 2, 4} {
		gamma := mult * lambdaInv
		bound := minf(qos.EndToEndTail(btot, lambdaInv, gamma), 1)
		exceed := 0
		for _, x := range delays.Values() {
			if x > d+gamma {
				exceed++
			}
		}
		p := float64(exceed) / float64(delays.N())
		r.addf("γ = %6.1f ms: empirical tail %.4f <= Corollary-1 bound %.4f", units.ToMillis(gamma), p, bound)
		r.set(fmt.Sprintf("tail_%.0f", mult), p)
		r.set(fmt.Sprintf("bound_%.0f", mult), bound)
		if p > bound {
			r.addf("  TAIL BOUND VIOLATED at γ = %v", gamma)
		}
	}
	r.set("packets", float64(delays.N()))
	return r
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
