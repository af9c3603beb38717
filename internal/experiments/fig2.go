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
	"repro/internal/units"
)

// Fig2a reproduces Figure 2(a): the analytic reduction in maximum delay
// Δ(p_f^j) that SFQ offers over WFQ (eq 58) as a function of the number of
// flows and the flow rate, for 200-byte packets on a 100 Mb/s link.
func Fig2a() *Result {
	r := newResult("fig2a", "Figure 2(a) — Δ max delay (WFQ − SFQ), 200 B packets, 100 Mb/s link")

	const l = 200.0
	c := units.Mbps(100)
	rates := []struct {
		name string
		rate float64
	}{
		{"32Kb/s", units.Kbps(32)},
		{"64Kb/s", units.Kbps(64)},
		{"128Kb/s", units.Kbps(128)},
		{"1Mb/s", units.Mbps(1)},
	}
	qs := []int{10, 50, 100, 200, 500, 1000, 2000, 3000}

	header := "  |Q| "
	for _, rt := range rates {
		header += "  Δ(" + rt.name + ") ms"
	}
	r.addf("%s", header)
	for _, nq := range qs {
		line := ""
		for _, rt := range rates {
			d := qos.WFQvsSFQDelayGapUniform(c, l, rt.rate, nq)
			line += "  " + fmtMS(d)
			r.set(fmtKey("delta", rt.name, nq), units.ToMillis(d))
		}
		r.addf("%5d %s", nq, line)
	}
	r.addf("reduction is larger for lower-throughput flows; Δ >= 0 while r/C <= 1/(|Q|-1) (eq 60)")
	return r
}

func fmtMS(sec float64) string {
	return fmt.Sprintf("%12.3f", units.ToMillis(sec))
}

// Fig2bConfig parameterizes the Fig 2(b) reproduction. Scale multiplies
// the simulated duration (1.0 = the paper's 1000 seconds).
type Fig2bConfig struct {
	Scale float64
	Seed  int64
}

// Fig2b reproduces Figure 2(b): average delay of low-throughput flows
// under WFQ and SFQ. A 1 Mb/s link with 200-byte packets carries 7 Poisson
// flows at 100 Kb/s and n ∈ [2,10] Poisson flows at 32 Kb/s; the paper
// reports the low-throughput flows' average delay vs link utilization,
// with WFQ 53% higher at 80.81% utilization.
func Fig2b(cfg Fig2bConfig) *Result {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	r := newResult("fig2b", "Figure 2(b) — average delay of low-throughput flows, WFQ vs SFQ")

	duration := 1000.0 * cfg.Scale
	// Ten independent runs, WFQ then SFQ for n = 10, 8, …, 2: the largest
	// (WFQ at n = 10) starts first.
	delay := make([]float64, 10)
	sweep(len(delay), func(i int) {
		name := [2]string{"WFQ", "SFQ"}[i%2]
		delay[i] = runFig2b(cfg, name, 10-2*(i/2), duration)
	})
	r.addf("%4s %8s %14s %14s %10s", "n", "util", "WFQ avg (ms)", "SFQ avg (ms)", "WFQ/SFQ")
	for n := 2; n <= 10; n += 2 {
		util := (700.0 + 32*float64(n)) / 1000
		i := 10 - n // WFQ's slot; SFQ's is the next
		wfqDelay, sfqDelay := delay[i], delay[i+1]
		ratio := wfqDelay / sfqDelay
		r.addf("%4d %7.1f%% %14.3f %14.3f %10.2f",
			n, util*100, units.ToMillis(wfqDelay), units.ToMillis(sfqDelay), ratio)
		r.set(fmtKey("wfq", "ms", n), units.ToMillis(wfqDelay))
		r.set(fmtKey("sfq", "ms", n), units.ToMillis(sfqDelay))
		r.set(fmtKey("ratio", "", n), ratio)
	}
	r.addf("paper: WFQ's average delay is significantly higher (53%% higher at 80.81%% utilization)")
	return r
}

// runFig2b returns the average delay (seconds) over all low-throughput
// flows for one scheduler and low-flow count.
func runFig2b(cfg Fig2bConfig, schedName string, nLow int, duration float64) float64 {
	const (
		pkt  = 200.0
		high = 7
	)
	c := units.Mbps(1)
	rHigh := units.Kbps(100)
	rLow := units.Kbps(32)

	q := &eventq.Queue{}
	var s sched.Interface
	if schedName == "WFQ" {
		s = sched.MustNew("wfq", sched.WithAssumedCapacity(c))
	} else {
		s = core.New()
	}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "link", s, server.NewConstantRate(c), sink)
	// The one number wanted is the low flows' mean delay, so the departure
	// hook keeps a running delay sum and count per flow, not a monitor's
	// log of every departure.
	sums := make([]float64, 1+high+nLow)
	counts := make([]int, 1+high+nLow)
	link.OnDepart = func(f *sim.Frame, _, end float64) {
		sums[f.Flow] += end - f.Arrived
		counts[f.Flow]++
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	flow := 1
	for i := 0; i < high; i++ {
		if err := s.AddFlow(flow, rHigh); err != nil {
			panic(err)
		}
		(&source.Poisson{Q: q, Out: link, Flow: flow, Rate: rHigh, PktBytes: pkt,
			Start: 0, Stop: duration, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
		flow++
	}
	for i := 0; i < nLow; i++ {
		if err := s.AddFlow(flow, rLow); err != nil {
			panic(err)
		}
		(&source.Poisson{Q: q, Out: link, Flow: flow, Rate: rLow, PktBytes: pkt,
			Start: 0, Stop: duration, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
		flow++
	}
	q.Run()

	// Each flow's mean times its count, summed in flow order: the fold
	// of stats.Sample's Mean()·N(), so the result is the same bit for bit.
	sum, n := 0.0, 0
	for f := high + 1; f < flow; f++ {
		if k := counts[f]; k > 0 {
			sum += sums[f] / float64(k) * float64(k)
			n += k
		}
	}
	return sum / float64(n)
}

// WFQDelta pins the §2.3 numeric comparison: 70 flows at 1 Mb/s plus 200
// flows at 64 Kb/s on a 100 Mb/s link.
func WFQDelta() *Result {
	r := newResult("wfqdelta", "§2.3 — max-delay shift for the 70×1Mb/s + 200×64Kb/s mix")
	const l = 200.0
	c := units.Mbps(100)
	sumOther := float64(269) * l
	kib := func(rate float64) float64 { return rate * 1024 / 8 }
	dLow := qos.WFQvsSFQDelayGap(c, l, kib(64), l, sumOther)
	dHigh := qos.WFQvsSFQDelayGap(c, l, units.Mbps(1), l, sumOther)
	r.addf("64 Kb/s flows: max delay reduced by %6.2f ms under SFQ (paper: 20.39 ms)", units.ToMillis(dLow))
	r.addf("1 Mb/s flows:  max delay increased by %5.2f ms under SFQ (paper: 2.48 ms)", -units.ToMillis(dHigh))
	r.set("low_ms", units.ToMillis(dLow))
	r.set("high_ms", units.ToMillis(dHigh))
	return r
}

func fmtKey(prefix, mid string, n int) string {
	if mid == "" {
		return fmt.Sprintf("%s_%d", prefix, n)
	}
	return fmt.Sprintf("%s_%s_%d", prefix, mid, n)
}
