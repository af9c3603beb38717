package conformance

import "testing"

// The pifo-* registry names date from when every tag-based discipline
// existed twice — hand-written, and as a rank function — and this file was
// the differential test between the two. The hand-written copies are gone
// (the rank functions in internal/sched are the implementation), and of
// the names only "pifo-sfq" is left, until the benchmark ladder and the
// trees that name it move to "sfq". What is left to check here is that it
// resolves to sfq's discipline and configuration: same digest, seed by
// seed, across the three regimes of the flow-core pin (healthy, wide,
// chaos). It goes when the name does.

// pifoEquivPairs lists (plain sut, alias sut) by sut-table name.
func pifoEquivPairs() [][2]sut {
	byName := make(map[string]sut)
	for _, s := range suts() {
		byName[s.name] = s
	}
	return [][2]sut{{byName["sfq"], byName["pifo-sfq"]}}
}

// TestPIFOEquivalence sweeps every pair through the healthy, wide, and
// chaos digest functions and requires equality seed by seed. Digest
// equality is the full transcript — dequeue order, tags to 17 significant
// digits, sink totals (and for chaos, the fault plan's delivery audit).
func TestPIFOEquivalence(t *testing.T) {
	regimes := []struct {
		name   string
		seeds  int64
		digest func(s sut, seed int64) (string, error)
	}{
		{"healthy", flowCoreHealthySeeds, healthyFlowDigest},
		{"wide", flowCoreWideSeeds, wideFlowDigest},
		{"chaos", flowCoreChaosSeeds, chaosFlowDigest},
	}
	for _, pair := range pifoEquivPairs() {
		hand, via := pair[0], pair[1]
		t.Run(hand.name+"="+via.name, func(t *testing.T) {
			t.Parallel()
			if len(hand.kinds) != len(via.kinds) {
				t.Fatalf("kind sets differ (%d vs %d); the pair would not see the same workloads",
					len(hand.kinds), len(via.kinds))
			}
			for _, reg := range regimes {
				seeds := reg.seeds
				if testing.Short() {
					seeds = 4
				}
				for seed := int64(0); seed < seeds; seed++ {
					dh, err := reg.digest(hand, seed)
					if err != nil {
						t.Fatalf("%s seed %d (%s): %v", reg.name, seed, hand.name, err)
					}
					dv, err := reg.digest(via, seed)
					if err != nil {
						t.Fatalf("%s seed %d (%s): %v", reg.name, seed, via.name, err)
					}
					if dh != dv {
						t.Errorf("%s seed %d: %s diverged from %s (schedule digests differ)",
							reg.name, seed, via.name, hand.name)
					}
				}
			}
		})
	}
}
