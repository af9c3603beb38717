package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/faults"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
)

// FaultContrast reproduces the Section 4 robustness claim with the fault
// layer instead of a hand-scripted server: SFQ's Theorem 1 holds no matter
// how the server fluctuates (its proof assumes nothing about the server),
// while WFQ — whose fluid reference runs at an assumed capacity — violates
// the same bound once the real rate diverges from the assumed one.
//
// Scenario A is Example 2 rebuilt through faults.Modulated: a brownout
// episode holds the server at a tenth of its nominal rate for one second.
// The flow that is backlogged during the brownout accumulates small
// virtual finish times in WFQ's too-fast fluid simulation, so when the
// rate recovers WFQ serves it exclusively and the measured unfairness
// H(f,m) blows through the Theorem-1 bound. SFQ self-clocks off actual
// departures and stays within the bound.
//
// Scenario B drives SFQ through a seeded random flapping schedule (stalls
// and partial degradations) with both flows continuously backlogged: the
// bound must hold for every seed, which the robustness tests assert.
func FaultContrast(seed int64) *Result {
	r := newResult("chaos", "§4 contrast — fairness under a fault-modulated server (SFQ holds, WFQ does not)")

	const c = 10.0 // nominal pkt/s; packets are 1 "byte" = 1 packet
	brownout := []faults.Episode{{Start: 0, Duration: 1, Factor: 0.1}}
	var arr []schedtest.Arrival
	for i := 0; i < int(c)+1; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 1, Bytes: 1})
	}
	for i := 0; i < int(c)+1; i++ {
		arr = append(arr, schedtest.Arrival{At: 1, Flow: 2, Bytes: 1})
	}
	bound := qos.SFQFairnessBound(1, 1, 1, 1)
	r.addf("brownout: server at 0.1C during [0,1), flow 2 arrives at recovery; Theorem-1 bound %.3f", bound)
	for _, algo := range []string{"WFQ", "SFQ"} {
		var s sched.Interface
		if algo == "WFQ" {
			s = sched.MustNew("wfq", sched.WithAssumedCapacity(c)) // assumes the nominal rate the server no longer delivers
		} else {
			s = core.New()
		}
		if err := s.AddFlow(1, 1); err != nil {
			panic(err)
		}
		if err := s.AddFlow(2, 1); err != nil {
			panic(err)
		}
		proc := faults.NewModulated(server.NewConstantRate(c), brownout)
		res := schedtest.Drive(s, proc, arr)
		h := fairness.MonitorUnfairness(res.Mon, 1, 2, 1, 1)
		verdict := "holds"
		if h > bound {
			verdict = "VIOLATED"
		}
		r.addf("%-4s measured H(f,m) = %6.3f  bound %.3f  -> %s", algo, h, bound, verdict)
		r.set("H_"+algo, h)
	}
	r.set("bound", bound)

	// Scenario B: seeded flapping, both flows backlogged from t = 0 at
	// weights 1:3. Theorem 1 must survive arbitrary fluctuation.
	rng := rand.New(rand.NewSource(seed))
	eps := faults.RandomEpisodes(rng, 4, 3.0, 0.5)
	var arr2 []schedtest.Arrival
	for i := 0; i < 15; i++ {
		arr2 = append(arr2, schedtest.Arrival{At: 0, Flow: 1, Bytes: 1})
	}
	for i := 0; i < 45; i++ {
		arr2 = append(arr2, schedtest.Arrival{At: 0, Flow: 2, Bytes: 1})
	}
	s := core.New()
	if err := s.AddFlow(1, 1); err != nil {
		panic(err)
	}
	if err := s.AddFlow(2, 3); err != nil {
		panic(err)
	}
	proc := faults.NewModulated(server.NewConstantRate(c), eps)
	res := schedtest.Drive(s, proc, arr2)
	h := fairness.MonitorUnfairness(res.Mon, 1, 2, 1, 3)
	bound2 := qos.SFQFairnessBound(1, 1, 1, 3)
	r.addf("flapping: %d seeded episodes (stalls + degradations); SFQ H(f,m) = %.3f  bound %.3f", len(eps), h, bound2)
	r.set("flap_episodes", float64(len(eps)))
	r.set("flap_H_SFQ", h)
	r.set("flap_bound", bound2)
	r.addf("paper §4: SFQ's fairness needs no assumption about the server; WFQ's does")
	return r
}
