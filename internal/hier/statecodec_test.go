package hier_test

import (
	"math/rand"
	"testing"

	"repro/internal/conformance"
	"repro/internal/hier"
	"repro/internal/sched"
)

// TestStateCodecMatchesEncodingJSON holds the tree's state codec to
// encoding/json on the mid-run states of the conformance workloads,
// healthy and under chaos plans: a flat HSFQ, a structured HSFQ, and
// grammar-built compositions with discipline nodes and sinks, strict
// priority among them.
func TestStateCodecMatchesEncodingJSON(t *testing.T) {
	deep := func() sched.Interface {
		flow := func(f int) *hier.Spec { return &hier.Spec{IsFlow: true, Flow: f, Weight: float64(f)} }
		return mustBuild(&hier.Spec{Name: "sfq", Children: []*hier.Spec{
			{Name: "sfq", Class: "tenant-a", Weight: 1, Children: []*hier.Spec{
				{Name: "sfq", Class: "a-\u2028interactive&", Weight: 2, Children: []*hier.Spec{flow(1)}},
				flow(2),
			}},
			{Name: "sfq", Class: "tenant-<b>", Weight: 3, Children: []*hier.Spec{flow(3), flow(4)}},
		}})
	}
	suts := map[string]func() sched.Interface{
		"hsfq": func() sched.Interface { return hsfq() },
		"deep": deep,
	}
	for _, spec := range []string{"sfq(drr,edd)", "sfq(edd,scfq,drr,fifo)", "pifo-sfq(pifo-sfq,pifo-sfq)", "sfq(sfq(fifo,drr),edd)", "priority(fifo,scfq)"} {
		spec := spec
		suts[spec] = func() sched.Interface { return mustTree(spec) }
	}
	kinds := []conformance.Kind{conformance.Bursty, conformance.Sporadic, conformance.OnOff, conformance.Greedy}
	for name, mk := range suts {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				w := conformance.Random(rng, kinds[int(seed)%len(kinds)], 30)
				plan := conformance.RandomFaultPlan(rng, conformance.ChaosHorizon(w))
				checked := 0
				err := conformance.InspectMidRun(mk, w, plan, 6, func(s sched.Interface) error {
					h := s.(*hier.Tree)
					data, err := h.AppendState(nil)
					if err != nil {
						return err
					}
					checked++
					return hier.CheckStateCodec(h, data)
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if checked < 10 {
					t.Fatalf("seed %d: only %d mid-run states checked", seed, checked)
				}
			}
		})
	}
}
