package fairness_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/conformance"
	_ "repro/internal/core" // registers "sfq"
	"repro/internal/fairness"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestMonitorUnfairnessOnConformanceWorkloads holds the one-pass H to the
// quadratic sweep on what real links record: the conformance workloads of
// every kind, healthy and under the chaos suite's fault plans (capacity
// stalls, outages that drop the frame in transmission), under disciplines
// that are fair and ones that are not. Every flow pair is compared, within
// 1e-12 relative.
func TestMonitorUnfairnessOnConformanceWorkloads(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	pairs := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := conformance.Random(rng, conformance.Kind(seed%int64(conformance.NumKinds)), 30)
		for _, name := range []string{"sfq", "scfq", "drr", "wfq", "fifo"} {
			mk := func() sched.Interface { return sched.MustNew(name, sched.WithAssumedCapacity(w.C)) }
			_, res, err := conformance.Run(mk(), w, nil)
			if err != nil {
				t.Fatal(err)
			}
			chaos, err := conformance.ChaosRun(mk(), w, conformance.RandomFaultPlan(rng, conformance.ChaosHorizon(w)))
			if err != nil {
				t.Fatal(err)
			}
			for _, mon := range []*sim.Monitor{res.Mon, chaos.Mon} {
				recs := mon.ServiceRecords()
				for _, f := range w.Flows {
					for _, m := range w.Flows {
						if f.Flow == m.Flow {
							continue
						}
						fIv, mIv := mon.BackloggedIntervals(f.Flow), mon.BackloggedIntervals(m.Flow)
						got := fairness.MonitorUnfairness(mon, f.Flow, m.Flow, f.Weight, m.Weight)
						want := fairness.QuadraticUnfairness(recs, fIv, mIv, f.Flow, m.Flow, f.Weight, m.Weight)
						if math.Abs(got-want) > 1e-12*math.Max(got, want) {
							t.Fatalf("seed %d %s: H(%d,%d) = %v, quadratic reference %v", seed, name, f.Flow, m.Flow, got, want)
						}
						if want > 0 {
							pairs++
						}
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pair was ever jointly backlogged: the comparison is vacuous")
	}
}
