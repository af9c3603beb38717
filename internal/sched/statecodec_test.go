package sched_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"repro/internal/conformance"
	"repro/internal/hier"
	"repro/internal/sched"

	_ "repro/internal/core" // register sfq/hsfq
	_ "repro/internal/pifo" // register pifo-*/lstf/srpt/fifo+
)

// TestStateCodecMatchesEncodingJSON holds the state codec to encoding/json
// on the mid-run states of the conformance workloads, healthy and under
// chaos plans, for every registered discipline that snapshots and is not a
// scheduler tree (internal/hier holds its trees to the same oracle).
func TestStateCodecMatchesEncodingJSON(t *testing.T) {
	kinds := []conformance.Kind{conformance.Bursty, conformance.Sporadic, conformance.OnOff, conformance.Greedy, conformance.VariableRate}
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				w := conformance.Random(rng, kinds[int(seed)%len(kinds)], 30)
				plan := conformance.RandomFaultPlan(rng, conformance.ChaosHorizon(w))
				mk := func() sched.Interface {
					return sched.MustNew(name, sched.WithAssumedCapacity(w.C), sched.WithQuantum(w.LmaxAll()))
				}
				snap, ok := mk().(sched.Snapshotter)
				if _, tree := snap.(*hier.Tree); !ok || tree {
					t.Skipf("%s: not a snapshotting discipline of internal/sched", name)
				}
				checked := 0
				err := conformance.InspectMidRun(mk, w, plan, 6, func(s sched.Interface) error {
					data, err := s.(sched.Snapshotter).AppendState(nil)
					if err != nil {
						return err
					}
					checked++
					return sched.CheckStateCodec(s.(sched.Snapshotter), data)
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

// TestStateCodecScriptedGolden holds the codec to encoding/json on the
// scripted states pinned by the conformance suite's snapshot-bytes test.
func TestStateCodecScriptedGolden(t *testing.T) {
	data, err := os.ReadFile("../conformance/testdata/snapshot_bytes.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for key, s := range map[string]sched.Snapshotter{
		"scfq":        sched.MustNew("scfq").(sched.Snapshotter),
		"pifo-sfq":    sched.MustNew("pifo-sfq").(sched.Snapshotter),
		"drr":         sched.MustNew("drr").(sched.Snapshotter),
		"fairairport": sched.MustNew("fairairport").(sched.Snapshotter),
	} {
		state, ok := golden[key]
		if !ok {
			t.Fatalf("%s missing from the golden file", key)
		}
		if err := sched.CheckStateDecode(s, []byte(state)); err != nil {
			t.Errorf("%s: %v", key, err)
		}
	}
}
