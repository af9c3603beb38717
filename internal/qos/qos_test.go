package qos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/server"
	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// TestEATChain checks eq (37) on a worked sequence.
func TestEATChain(t *testing.T) {
	var e EAT
	// rate 100 B/s, 100 B packets: transmission "slots" of 1 s.
	if got := e.Next(0, 100, 100); got != 0 {
		t.Errorf("EAT(p1) = %v, want arrival 0", got)
	}
	// Back-to-back arrival: EAT = prev EAT + l/r = 1.
	if got := e.Next(0.2, 100, 100); got != 1 {
		t.Errorf("EAT(p2) = %v, want 1", got)
	}
	// Late arrival after the chain: EAT = arrival.
	if got := e.Next(10, 100, 100); got != 10 {
		t.Errorf("EAT(p3) = %v, want 10", got)
	}
}

// Property: EAT is non-decreasing and never below the arrival time.
func TestQuickEATMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e EAT
		tprev := 0.0
		eatPrev := math.Inf(-1)
		for i := 0; i < 50; i++ {
			tprev += rng.Float64()
			eat := e.Next(tprev, 1+rng.Float64()*100, 1+rng.Float64()*100)
			if eat < tprev || eat < eatPrev {
				return false
			}
			eatPrev = eat
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPaperDelayNumbers pins the numeric illustrations of §2.3. The
// paper's "64 Kb/s" is 65536 b/s (1024-based): that convention reproduces
// the quoted 24.4 ms exactly. The mixed-flow deltas (20.39 ms / −2.48 ms)
// are matched in shape with a rounding-slop tolerance since the paper does
// not state its exact unit base there.
func TestPaperDelayNumbers(t *testing.T) {
	kib := func(r float64) float64 { return r * 1024 / 8 } // 1024-based Kb/s → bytes/s
	gap := SCFQvsSFQDelayGap(units.Mbps(100), 200, kib(64))
	approx(t, "SCFQ-SFQ gap", units.ToMillis(gap), 24.4, 0.05)

	// "the difference increases to 122 ms for K = 5".
	approx(t, "5-hop gap", units.ToMillis(5*gap), 122, 0.1)

	// "70 flows of 1 Mb/s and 200 flows of 64 Kb/s: the 64 Kb/s flows'
	// maximum delay reduces by 20.39 ms, the 1 Mb/s flows' increases by
	// 2.48 ms" (eq 58 with l = 200 B for every flow).
	const l = 200.0
	c := units.Mbps(100)
	nFlows := 270
	sumOther := float64(nFlows-1) * l
	dLow := WFQvsSFQDelayGap(c, l, kib(64), l, sumOther)
	approx(t, "low-rate delta", units.ToMillis(dLow), 20.39, 0.5)
	dHigh := WFQvsSFQDelayGap(c, l, units.Mbps(1), l, sumOther)
	approx(t, "high-rate delta", units.ToMillis(dHigh), -2.48, 0.5)
}

// TestCrossover pins eq (60): SFQ wins for shares below 1/(|Q|-1).
func TestCrossover(t *testing.T) {
	c := units.Mbps(100)
	const l = 200.0
	q := 11
	share := CrossoverShare(q) // 0.1
	if share != 0.1 {
		t.Fatalf("crossover share = %v", share)
	}
	below := WFQvsSFQDelayGapUniform(c, l, 0.09*c, q)
	above := WFQvsSFQDelayGapUniform(c, l, 0.11*c, q)
	if below <= 0 {
		t.Errorf("Δ for share below crossover = %v, want > 0", below)
	}
	if above >= 0 {
		t.Errorf("Δ for share above crossover = %v, want < 0", above)
	}
	if !math.IsInf(CrossoverShare(1), 1) {
		t.Error("single-flow crossover should be +Inf")
	}
}

// TestFairnessBounds sanity-checks the Table 1 formulas, including the
// paper's DRR example (H = 1.02 vs 0.02 for r = 100, l = 1).
func TestFairnessBounds(t *testing.T) {
	approx(t, "lower bound", FairnessLowerBound(1, 100, 1, 100), 0.01, 1e-12)
	approx(t, "SFQ bound", SFQFairnessBound(1, 100, 1, 100), 0.02, 1e-12)
	approx(t, "SCFQ bound", SCFQFairnessBound(1, 100, 1, 100), 0.02, 1e-12)
	approx(t, "DRR bound", DRRFairnessBound(1, 100, 1, 100), 1.02, 1e-12)
	if DRRFairnessBound(1, 100, 1, 100)/SCFQFairnessBound(1, 100, 1, 100) != 51 {
		t.Error("the paper's 51x DRR/SCFQ ratio (1.02/0.02) should hold")
	}
}

// TestThroughputFCRecursion checks eq (65): the virtual server of a class
// of an SFQ FC server is itself FC with the stated parameters.
func TestThroughputFCRecursion(t *testing.T) {
	link := server.FCParams{C: 1000, Delta: 50}
	// Class with rate 400, l_f^max = 100, Σ l_n^max = 300.
	sub := SFQThroughputFC(link, 400, 100, 300)
	approx(t, "sub rate", sub.C, 400, 1e-12)
	approx(t, "sub delta", sub.Delta, 400*300/1000.0+400*50/1000.0+100, 1e-12)

	// Second level of the recursion nests cleanly.
	subsub := SFQThroughputFC(sub, 100, 50, 150)
	approx(t, "subsub rate", subsub.C, 100, 1e-12)
	if subsub.Delta <= sub.Delta*100/400 {
		t.Error("nested delta should include the parent's burst terms")
	}
}

// TestThroughputBoundMatchesFC: Theorem 2's bound equals the FC
// characterization evaluated at dt.
func TestThroughputBoundMatchesFC(t *testing.T) {
	link := server.FCParams{C: 1000, Delta: 50}
	fc := SFQThroughputFC(link, 400, 100, 300)
	for _, dt := range []float64{0.1, 1, 10} {
		a := SFQThroughputBound(link, 400, 100, 300, dt)
		b := fc.FCBound(dt)
		approx(t, "bound vs FC", a, b, 1e-9)
	}
}

// TestDelayBounds checks Theorem 4 and the SCFQ/WFQ comparison shapes.
func TestDelayBounds(t *testing.T) {
	fc := server.FCParams{C: 1000, Delta: 20}
	d := SFQDelayBound(fc, 5, 100, 300)
	approx(t, "Theorem 4", d, 5+300/1000.0+100/1000.0+20/1000.0, 1e-12)

	scfq := SCFQDelayBound(1000, 5, 100, 10, 300)
	if scfq <= d {
		t.Errorf("SCFQ bound %v should exceed SFQ bound %v for a low-rate flow", scfq, d)
	}
	wfq := WFQDelayBound(1000, 5, 100, 10, 100)
	if wfq <= d {
		t.Errorf("WFQ bound %v should exceed SFQ bound %v for a low-rate flow", wfq, d)
	}

}

// TestEndToEndComposition checks Corollary 1 for deterministic and
// stochastic paths.
func TestEndToEndComposition(t *testing.T) {
	// Three FC hops.
	hops := []ServerSpec{
		{Beta: 0.01, Prop: 0.002},
		{Beta: 0.02, Prop: 0.003},
		{Beta: 0.03, Prop: 0.004}, // final Prop unused
	}
	d, btot, li := EndToEnd(hops)
	approx(t, "deterministic D", d, 0.01+0.002+0.02+0.003+0.03, 1e-12)
	if btot != 0 || li != 0 {
		t.Error("all-FC path should be deterministic")
	}
	if EndToEndTail(btot, li, 0) != 0 {
		t.Error("deterministic tail should be 0")
	}

	// Mixed FC + EBF hops: B sums, 1/λ sums.
	hops[1].B = 0.5
	hops[1].Lambda = 100
	hops[2].B = 0.25
	hops[2].Lambda = 50
	_, btot, li = EndToEnd(hops)
	approx(t, "B total", btot, 0.75, 1e-12)
	approx(t, "lambda inv", li, 1/100.0+1/50.0, 1e-12)
	p := EndToEndTail(btot, li, 0.03)
	approx(t, "tail", p, 0.75*math.Exp(-1), 1e-9)
	if EndToEndTail(5, li, 0) != 1 {
		t.Error("tail should clamp at 1")
	}
}

// TestSFQServerSpec wires Theorem 4/5 terms into a hop spec.
func TestSFQServerSpec(t *testing.T) {
	h := SFQServerSpec(1000, 20, 100, 300, 0.5, 0.01, 0.002)
	approx(t, "beta", h.Beta, 300/1000.0+100/1000.0+20/1000.0, 1e-12)
	approx(t, "lambda", h.Lambda, 10, 1e-12)
	if h.Prop != 0.002 || h.B != 0.5 {
		t.Error("spec fields")
	}
}

// TestLeakyBucketE2EDelay checks the A.5 composition.
func TestLeakyBucketE2EDelay(t *testing.T) {
	d := LeakyBucketE2EDelay(1000, 100, 50, 0.5)
	approx(t, "lb delay", d, 1000/100.0-50/100.0+0.5, 1e-12)
}

// TestDelayShiftCondition checks eq (73) on the paper's framing.
func TestDelayShiftCondition(t *testing.T) {
	// |Q| = 20 flows, K = 2 partitions. A small partition (|Q_i| = 4)
	// holding half the link improves; a big one (|Q_i| = 16) on half the
	// link does not.
	if !DelayShiftImproves(4, 20, 2, 500, 1000) {
		t.Error("(4+1)/18 < 0.5 should improve")
	}
	if DelayShiftImproves(16, 20, 2, 500, 1000) {
		t.Error("(16+1)/18 > 0.5 should not improve")
	}
}

// TestEDDSchedulableEdgeCases exercises validation.
func TestEDDSchedulableEdgeCases(t *testing.T) {
	if err := EDDSchedulable(nil, 100, 10); err != nil {
		t.Errorf("empty set: %v", err)
	}
	bad := []EDDFlowSpec{{Rate: -1, Length: 1, Deadline: 1}}
	if err := EDDSchedulable(bad, 100, 10); err == nil {
		t.Error("invalid spec accepted")
	}
	// A single flow consuming the whole link with deadline l/C exactly.
	tight := []EDDFlowSpec{{Rate: 100, Length: 100, Deadline: 1}}
	if err := EDDSchedulable(tight, 100, 10); err != nil {
		t.Errorf("tight but feasible: %v", err)
	}
}

// TestFABounds checks the Appendix B formulas.
func TestFABounds(t *testing.T) {
	approx(t, "Theorem 9", FADelayBound(1000, 5, 100, 10, 200), 5+10+0.2, 1e-12)
	approx(t, "Theorem 8", FAFairnessBound(1000, 100, 10, 100, 10, 200),
		3*(10+10.0)+2*0.2, 1e-12)
}
