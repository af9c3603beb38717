package replay_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/pifo"
	"repro/internal/pifo/replay"
	"repro/internal/sched"
)

const capacity = 1e4 // bytes/s

// workload generates a seeded arrival script: a burst near t=0 plus a
// sporadic tail, across 2–5 flows — enough cross-flow reordering that the
// disciplines under recording genuinely disagree.
func workload(seed int64) (arr []replay.Arrival, weights map[int]float64) {
	rng := rand.New(rand.NewSource(seed))
	nflows := 2 + rng.Intn(4)
	weights = make(map[int]float64)
	for f := 1; f <= nflows; f++ {
		weights[f] = 0.1 + rng.Float64()
		for i := 0; i < 6; i++ {
			arr = append(arr, replay.Arrival{
				At: rng.Float64() * 1e-2, Flow: f, Bytes: 64 + rng.Float64()*1436,
			})
		}
		t := rng.Float64() * 0.1
		for i := 0; i < 6; i++ {
			size := 64 + rng.Float64()*1436
			arr = append(arr, replay.Arrival{At: t, Flow: f, Bytes: size})
			t += size / (weights[f] * capacity) * (0.5 + rng.Float64())
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].At < arr[j].At })
	return arr, weights
}

func addFlows(t *testing.T, s sched.Interface, weights map[int]float64) {
	t.Helper()
	for f := 1; f <= len(weights); f++ {
		if err := s.AddFlow(f, weights[f]*capacity); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLSTFReplaysEverything is the Mittal et al. single-switch result,
// asserted exactly: whatever discipline produced the schedule, LSTF with
// slack = recorded waiting time reproduces it — same order, bit-identical
// start and end times — and does so without ever tripping the per-flow
// monotonizing clamp (recorded per-flow starts are increasing, so the
// replay is feasible).
func TestLSTFReplaysEverything(t *testing.T) {
	recorders := map[string]func() sched.Interface{
		"sfq":    func() sched.Interface { return core.New() },
		"scfq":   func() sched.Interface { return sched.NewSCFQ() },
		"vclock": func() sched.Interface { return sched.NewVirtualClock() },
		"edd":    func() sched.Interface { return sched.NewEDD() },
		"wfq":    func() sched.Interface { return sched.NewWFQ(capacity) },
		"fifo":   func() sched.Interface { return sched.NewFIFO() },
		"srpt":   func() sched.Interface { return sched.MustNew("srpt") },
	}
	for name, mkRec := range recorders {
		name, mkRec := name, mkRec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 25; seed++ {
				arr, weights := workload(seed)
				rec := mkRec()
				addFlows(t, rec, weights)
				recorded, err := replay.Drive(rec, arr, capacity, nil)
				if err != nil {
					t.Fatalf("seed %d record: %v", seed, err)
				}
				lstf := sched.MustNewRanked(pifo.LSTF(), sched.Config{})
				addFlows(t, lstf, weights)
				replayed, err := replay.Drive(lstf, arr, capacity, replay.Slacks(recorded))
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				cmp := replay.Compare(recorded, replayed)
				if !cmp.Exact() {
					t.Fatalf("seed %d: LSTF replay of %s not exact: %d/%d in order, start diff %g, end diff %g",
						seed, name, cmp.OrderMatches, cmp.Total, cmp.MaxStartDiff, cmp.MaxEndDiff)
				}
				if n := lstf.Clamped(); n != 0 {
					t.Fatalf("seed %d: replay clamped %d pushes; recorded schedules must be per-flow feasible", seed, n)
				}
			}
		})
	}
}

// TestFIFOCannotReplay is the contrast: FIFO gets no per-packet state to
// initialize, so a recorded SFQ schedule that reorders across flows is
// beyond it. (Not for every seed — a near-FIFO recording can coincide —
// but across seeds divergence must show up.)
func TestFIFOCannotReplay(t *testing.T) {
	diverged := false
	for seed := int64(0); seed < 10; seed++ {
		arr, weights := workload(seed)
		rec := core.New()
		addFlows(t, rec, weights)
		recorded, err := replay.Drive(rec, arr, capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		fifo := sched.NewFIFO()
		addFlows(t, fifo, weights)
		replayed, err := replay.Drive(fifo, arr, capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cmp := replay.Compare(recorded, replayed); cmp.OrderMatches < cmp.Total {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("FIFO reproduced every recorded SFQ schedule; the workloads are too tame to mean anything")
	}
}

// TestDriveMatchesItself pins the driver: replaying a recording with the
// *same* discipline is trivially exact (determinism of the loop), and an
// empty arrival script yields an empty recording.
func TestDriveMatchesItself(t *testing.T) {
	arr, weights := workload(3)
	a := core.New()
	addFlows(t, a, weights)
	ra, err := replay.Drive(a, arr, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := core.New()
	addFlows(t, b, weights)
	rb, err := replay.Drive(b, arr, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmp := replay.Compare(ra, rb); !cmp.Exact() {
		t.Fatalf("identical drives diverged: %+v", cmp)
	}
	if out, err := replay.Drive(core.New(), nil, capacity, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty drive = (%v, %v)", out, err)
	}
	if _, err := replay.Drive(core.New(), nil, 0, nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
