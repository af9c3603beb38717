package experiments

import (
	"runtime"
	"testing"
)

// The experiment tests run at reduced scale where a scale knob exists and
// assert the *shape* of each paper result: who wins, by roughly what
// factor, and where crossovers fall.

func TestTable1Shapes(t *testing.T) {
	r := Table1(1)
	// Self-clocked algorithms stay within their (identical) bound.
	for _, algo := range []string{"SFQ", "SCFQ"} {
		for _, col := range []string{"H_const_", "H_var_"} {
			if r.Got[col+algo] > r.Got["H_bound_"+algo]+1e-9 {
				t.Errorf("%s %s = %v exceeds bound %v", algo, col,
					r.Got[col+algo], r.Got["H_bound_"+algo])
			}
		}
	}
	// WFQ's constant-rate unfairness exceeds the SFQ bound (Example 1's
	// phenomenon shows up even on random backlogged workloads).
	if r.Got["H_const_WFQ"] <= r.Got["H_bound_SFQ"] {
		t.Errorf("WFQ H@const = %v should exceed the SFQ bound %v",
			r.Got["H_const_WFQ"], r.Got["H_bound_SFQ"])
	}
	// DRR is the sloppiest of the family.
	if r.Got["H_const_DRR"] <= 2*r.Got["H_const_SFQ"] {
		t.Errorf("DRR H = %v should dwarf SFQ's %v", r.Got["H_const_DRR"], r.Got["H_const_SFQ"])
	}
}

func TestExample1Numbers(t *testing.T) {
	r := Example1()
	if r.Got["H_WFQ"] < 2-1e-9 {
		t.Errorf("WFQ H = %v, want 2.0", r.Got["H_WFQ"])
	}
	if r.Got["H_SFQ"] > 2+1e-9 {
		t.Errorf("SFQ H = %v, must respect Theorem 1", r.Got["H_SFQ"])
	}
}

func TestExample2Numbers(t *testing.T) {
	r := Example2()
	if r.Got["Wf_WFQ"] < 9-1e-9 || r.Got["Wm_WFQ"] > 1+1e-9 {
		t.Errorf("WFQ split %v/%v, want >=9 / <=1", r.Got["Wf_WFQ"], r.Got["Wm_WFQ"])
	}
	if d := r.Got["Wf_SFQ"] - r.Got["Wm_SFQ"]; d > 1+1e-9 || d < -1-1e-9 {
		t.Errorf("SFQ split %v/%v, want within one packet", r.Got["Wf_SFQ"], r.Got["Wm_SFQ"])
	}
}

func TestFig1bShape(t *testing.T) {
	r := Fig1b(Fig1Config{Scale: 1, Seed: 1})
	// WFQ: source 2 keeps nearly everything; source 3 starved early.
	if r.Got["src2_WFQ"] < 4*r.Got["src3_WFQ"] {
		t.Errorf("WFQ shares %v vs %v: source 3 should be starved",
			r.Got["src2_WFQ"], r.Got["src3_WFQ"])
	}
	if r.Got["early3_WFQ"] > 10 {
		t.Errorf("WFQ early source-3 packets = %v, paper saw 2", r.Got["early3_WFQ"])
	}
	// SFQ: near-even split, source 3 served promptly.
	ratio := r.Got["src2_SFQ"] / r.Got["src3_SFQ"]
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("SFQ share ratio = %v, want ≈ 1", ratio)
	}
	if r.Got["early3_SFQ"] < 20*r.Got["early3_WFQ"]/2 && r.Got["early3_SFQ"] < 50 {
		t.Errorf("SFQ early source-3 packets = %v, want prompt service", r.Got["early3_SFQ"])
	}
	// The residual throughput should be in the right ballpark: the paper
	// saw ≈ 330-380 TCP packets per 500 ms window.
	if tot := r.Got["src2_SFQ"] + r.Got["src3_SFQ"]; tot < 250 || tot > 450 {
		t.Errorf("SFQ total TCP packets = %v, want ≈ 330-380", tot)
	}
}

func TestFig2aCrossover(t *testing.T) {
	r := Fig2a()
	// Low-rate flows gain everywhere plotted at small |Q|.
	if r.Got["delta_32Kb/s_10"] <= 0 {
		t.Error("32 Kb/s flows should gain at |Q|=10")
	}
	// Gains shrink as |Q| or rate grows.
	if r.Got["delta_32Kb/s_1000"] >= r.Got["delta_32Kb/s_10"] {
		t.Error("gain should shrink with |Q|")
	}
	if r.Got["delta_1Mb/s_10"] >= r.Got["delta_32Kb/s_10"] {
		t.Error("gain should shrink with rate")
	}
	// 1 Mb/s flows cross to negative by |Q| = 200 (share 1% > 1/199).
	if r.Got["delta_1Mb/s_200"] >= 0 {
		t.Error("1 Mb/s flows should lose at |Q|=200")
	}
}

func TestFig2bShape(t *testing.T) {
	r := Fig2b(Fig2bConfig{Scale: 0.03, Seed: 1})
	// In the paper's utilization range WFQ's average delay is clearly
	// higher (53% at 80.81% utilization); require ≥ 15% at n=4 and a
	// ratio ≥ 1 everywhere.
	if r.Got["ratio_4"] < 1.15 {
		t.Errorf("WFQ/SFQ delay ratio at n=4 = %v, want >= 1.15", r.Got["ratio_4"])
	}
	for _, n := range []int{2, 4, 6, 8} {
		if r.Got[fmtKey("ratio", "", n)] < 1.0 {
			t.Errorf("WFQ should never beat SFQ on avg low-rate delay (n=%d: %v)",
				n, r.Got[fmtKey("ratio", "", n)])
		}
	}
	// Delays grow with utilization.
	if r.Got["sfq_ms_8"] <= r.Got["sfq_ms_2"] {
		t.Error("delay should grow with utilization")
	}
}

func TestFig3bStaircase(t *testing.T) {
	r := Fig3b(Fig3Config{Scale: 0.2, Seed: 1})
	check := func(key string, want, tol float64) {
		if got := r.Got[key]; got < want-tol || got > want+tol {
			t.Errorf("%s = %v, want %v ± %v", key, got, want, tol)
		}
	}
	check("phase1_r21", 2, 0.15)
	check("phase1_r31", 3, 0.2)
	check("phase2_r21", 2, 0.15)
}

func TestSCFQDelayShape(t *testing.T) {
	r := SCFQDelay(1)
	if got := r.Got["gap_ms"]; got < 24.3 || got > 24.5 {
		t.Errorf("analytic gap = %v ms, want 24.4", got)
	}
	if got := r.Got["gap5_ms"]; got < 121.5 || got > 122.5 {
		t.Errorf("5-hop gap = %v ms, want 122", got)
	}
	// The measured gap should realize most of the analytic 990 ms.
	meas := r.Got["scfq_worst_ms"] - r.Got["sfq_worst_ms"]
	if meas < 500 {
		t.Errorf("measured SCFQ-SFQ gap = %v ms, want a large fraction of 990", meas)
	}
}

func TestExample3Shares(t *testing.T) {
	r := Example3()
	if r.Got["C_B idle [0,5)"] < 2200 || r.Got["C_B idle [0,5)"] > 2800 {
		t.Errorf("phase 1 C share = %v, want ≈ 2500", r.Got["C_B idle [0,5)"])
	}
	if r.Got["B_B active [5,11)"] < 2600 || r.Got["B_B active [5,11)"] > 3400 {
		t.Errorf("phase 2 B share = %v, want ≈ 3000", r.Got["B_B active [5,11)"])
	}
	if r.Got["H_CD"] > 200 {
		t.Errorf("C/D unfairness = %v exceeds Theorem 1 bound 200", r.Got["H_CD"])
	}
}

func TestDelayShiftShape(t *testing.T) {
	r := DelayShift(DelayShiftConfig{Scale: 1, Seed: 1})
	if r.Got["hier_ms_favored"] >= r.Got["flat_ms_favored"] {
		t.Error("favored partition's bound should improve")
	}
	if r.Got["hier_ms_other"] <= r.Got["flat_ms_other"] {
		t.Error("other partition's bound should worsen")
	}
	if r.Got["measured_hier_ms"] >= r.Got["measured_flat_ms"] {
		t.Errorf("measured favored delay should drop: flat %v, hier %v",
			r.Got["measured_flat_ms"], r.Got["measured_hier_ms"])
	}
}

func TestWFQDeltaNumbers(t *testing.T) {
	r := WFQDelta()
	if got := r.Got["low_ms"]; got < 19.5 || got > 21.0 {
		t.Errorf("low-rate delta = %v ms, paper 20.39", got)
	}
	if got := r.Got["high_ms"]; got > -2.0 || got < -3.2 {
		t.Errorf("high-rate delta = %v ms, paper -2.48", got)
	}
}

func TestResidualBoundHolds(t *testing.T) {
	r := Residual(1)
	if r.Got["violations"] != 0 {
		t.Errorf("Theorem 4 with residual FC violated %v times", r.Got["violations"])
	}
	if r.Got["packets"] < 1000 {
		t.Errorf("too few packets measured: %v", r.Got["packets"])
	}
	if r.Got["min_slack_ms"] < 0 {
		t.Errorf("negative slack %v", r.Got["min_slack_ms"])
	}
}

func TestEndToEndBoundHolds(t *testing.T) {
	r := EndToEndBound(E2EConfig{Scale: 0.3, Seed: 1})
	if r.Got["measured_max_ms"] > r.Got["bound_ms"] {
		t.Errorf("measured max %v ms exceeds Corollary 1 bound %v ms",
			r.Got["measured_max_ms"], r.Got["bound_ms"])
	}
	// The bound should be meaningfully tight: measured within 4x.
	if r.Got["measured_max_ms"]*4 < r.Got["bound_ms"] {
		t.Errorf("bound %v ms is suspiciously loose vs measured %v ms",
			r.Got["bound_ms"], r.Got["measured_max_ms"])
	}
	if r.Got["packets"] < 100 {
		t.Errorf("too few packets: %v", r.Got["packets"])
	}
}

func TestGenRateCapacityAndBound(t *testing.T) {
	r := GenRate(1)
	if r.Got["violations"] != 0 {
		t.Errorf("generalized-rate Theorem 4 violated %v times", r.Got["violations"])
	}
	if r.Got["max_aggregate"] > 10000 {
		t.Errorf("capacity precondition broken: %v", r.Got["max_aggregate"])
	}
}

func TestAblationTieBreak(t *testing.T) {
	r := AblationTieBreak(1)
	if r.Got["lowweight_ms"] >= r.Got["fifo_ms"] {
		t.Errorf("low-weight-first ties should lower interactive delay: %v vs %v",
			r.Got["lowweight_ms"], r.Got["fifo_ms"])
	}
}

func TestAblationWFQClock(t *testing.T) {
	r := AblationWFQClock(1)
	// Every WFQ calibration leaves the late flow short of its fair 5.0;
	// SFQ delivers it.
	for _, k := range []string{"Wm_WFQ@assumed", "Wm_WFQ@mean", "Wm_WFQ@half-mean"} {
		if r.Got[k] >= 4.5 {
			t.Errorf("%s = %v, expected unfair (< 4.5)", k, r.Got[k])
		}
	}
	if r.Got["Wm_SFQ"] < 4.5 {
		t.Errorf("SFQ late-flow share = %v, want ≈ 5", r.Got["Wm_SFQ"])
	}
}

func TestAblationHierarchyOverhead(t *testing.T) {
	r := AblationHierarchyOverhead(1)
	if d := r.Got["tree_r31"] - r.Got["flat_r31"]; d > 0.5 || d < -0.5 {
		t.Errorf("degenerate tree ratio %v diverges from flat %v",
			r.Got["tree_r31"], r.Got["flat_r31"])
	}
	if r.Got["tree_H"] > 2*r.Got["flat_H"]+1 {
		t.Errorf("tree unfairness %v should track flat %v", r.Got["tree_H"], r.Got["flat_H"])
	}
}

func TestEBFTailBoundHolds(t *testing.T) {
	r := EBFTail(EBFTailConfig{Scale: 0.25, Seed: 1})
	for _, m := range []string{"0", "1", "2", "4"} {
		if r.Got["tail_"+m] > r.Got["bound_"+m] {
			t.Errorf("γ multiple %s: empirical %v exceeds bound %v",
				m, r.Got["tail_"+m], r.Got["bound_"+m])
		}
	}
	if r.Got["measured_max_ms"] > r.Got["D_ms"] {
		t.Errorf("measured max %v exceeds even the deterministic part %v — margins gone",
			r.Got["measured_max_ms"], r.Got["D_ms"])
	}
	if r.Got["packets"] < 500 {
		t.Errorf("too few packets: %v", r.Got["packets"])
	}
}

func TestBoundsTableShape(t *testing.T) {
	r := Bounds(BoundsConfig{})
	// SFQ's low-rate delay term must undercut SCFQ's and WFQ's in the
	// paper's canonical mix.
	if r.Got["low_ms_SFQ"] >= r.Got["low_ms_SCFQ"] || r.Got["low_ms_SFQ"] >= r.Got["low_ms_WFQ"] {
		t.Errorf("SFQ low-rate bound %v should undercut SCFQ %v and WFQ %v",
			r.Got["low_ms_SFQ"], r.Got["low_ms_SCFQ"], r.Got["low_ms_WFQ"])
	}
	if r.Got["H_SFQ"] >= r.Got["H_FA"] || r.Got["H_SFQ"] >= r.Got["H_DRR"] {
		t.Error("SFQ should have the smallest fairness measure")
	}
}

// TestSweepSameAtAnyProcs: every experiment whose runs share the CPUs
// renders the same text on one core as on two — byte for byte, since the
// runs write their own slots and rendering is in index order. e2ebound and
// ebftail run one topo queue per hop, on Run(GOMAXPROCS) workers.
func TestSweepSameAtAnyProcs(t *testing.T) {
	render := func() []string {
		return []string{
			Fig2b(Fig2bConfig{Scale: 0.005, Seed: 3}).String(),
			Table1(3).String(),
			Fig1b(Fig1Config{Scale: 0.3, Seed: 3}).String(),
			UPSReplay(3).String(),
			SCFQDelay(3).String(),
			LiveOps(3).String(),
			EndToEndBound(E2EConfig{Scale: 0.05, Seed: 3}).String(),
			EBFTail(EBFTailConfig{Scale: 0.05, Seed: 3}).String(),
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := render()
	runtime.GOMAXPROCS(2)
	two := render()
	for i := range one {
		if one[i] != two[i] {
			t.Errorf("GOMAXPROCS 1 and 2 differ:\n%s\nvs\n%s", one[i], two[i])
		}
	}
}

// TestSweepRepanics: a run's panic reaches the caller of sweep at any
// GOMAXPROCS, as it did when the runs were a plain loop.
func TestSweepRepanics(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got := func() (p any) {
			defer func() { p = recover() }()
			sweep(4, func(i int) {
				if i == 1 {
					panic("run 1")
				}
			})
			return nil
		}()
		runtime.GOMAXPROCS(prev)
		if got != "run 1" {
			t.Errorf("procs %d: recovered %v, want run 1's panic", procs, got)
		}
	}
}
