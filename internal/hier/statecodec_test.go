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
// grammar-built compositions with discipline nodes and sinks.
func TestStateCodecMatchesEncodingJSON(t *testing.T) {
	deep := func() sched.Interface {
		h := hier.NewHSFQ()
		a, _ := h.NewClass(nil, "tenant-a", 1)
		b, _ := h.NewClass(nil, "tenant-<b>", 3)
		a1, _ := h.NewClass(a, "a-\u2028interactive&", 2)
		for f, c := range map[int]*hier.Node{1: a1, 2: a, 3: b, 4: b} {
			if err := h.AddFlowTo(c, f, float64(f)); err != nil {
				panic(err)
			}
		}
		return h
	}
	suts := map[string]func() sched.Interface{
		"hsfq": func() sched.Interface { return hier.NewHSFQ() },
		"deep": deep,
	}
	for _, spec := range []string{"sfq(drr,edd)", "sfq(edd,scfq,drr,fifo)", "pifo-sfq(pifo-sfq,pifo-sfq)", "sfq(sfq(fifo,drr),edd)"} {
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
