package experiments

import (
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/pifo"
	"repro/internal/pifo/replay"
	"repro/internal/sched"
)

// UPSReplay runs the Universal Packet Scheduling experiment of Mittal et
// al. (PAPERS.md) on this repository's disciplines: record the schedule
// discipline X produces, initialize LSTF slacks from the recording
// (slack = recorded waiting time), and measure whether the replay
// reproduces the schedule. The UPS claim — pinned here as golden output —
// is that LSTF replays *every* discipline exactly on a single switch,
// while a blank discipline (FIFO, shown as the contrast) cannot replay
// anything that reorders across flows.
func UPSReplay(seed int64) *Result {
	r := newResult("ups-replay", "UPS — LSTF replay of recorded schedules (Mittal et al.), FIFO as contrast")

	const c = 1e4 // bytes/s
	const workloads = 20

	disciplines := []struct {
		name string
		mk   func() sched.Interface
	}{
		{"SFQ", func() sched.Interface { return core.New() }},
		{"WFQ", func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(c)) }},
		{"SCFQ", func() sched.Interface { return sched.MustNew("scfq") }},
		{"VC", func() sched.Interface { return sched.MustNew("vclock") }},
		{"EDD", func() sched.Interface { return sched.MustNew("edd") }},
		{"SRPT", func() sched.Interface { return sched.MustNew("srpt") }},
	}

	r.addf("%d seeded workloads, burst + sporadic arrivals over 3-6 flows, C = %.0f B/s", workloads, c)
	r.addf("replayer slack init: slack(p) = recorded start(p) - arrival(p); match = fraction served in recorded order")
	r.addf("%-5s  %-12s %-12s  %s", "rec.", "LSTF match", "FIFO match", "LSTF max |t_end - rec|")
	// One independent run per recording discipline, each over the same
	// seeded workloads.
	type row struct {
		minLSTF, minFIFO, maxEnd float64
		clamped                  uint64
	}
	rows := make([]row, len(disciplines))
	sweep(len(rows), func(i int) {
		d := disciplines[i]
		minLSTF, minFIFO := 1.0, 1.0
		maxEnd := 0.0
		clamped := uint64(0)
		for wseed := int64(0); wseed < workloads; wseed++ {
			arr, weights := upsWorkload(seed + wseed)
			rec := d.mk()
			upsAddFlows(rec, weights, c)
			recorded, err := replay.Drive(rec, arr, c, nil)
			if err != nil {
				panic(err)
			}

			lstf := sched.MustNewRanked(pifo.LSTF(), sched.Config{})
			upsAddFlows(lstf, weights, c)
			viaLSTF, err := replay.Drive(lstf, arr, c, replay.Slacks(recorded))
			if err != nil {
				panic(err)
			}
			cmpL := replay.Compare(recorded, viaLSTF)
			if f := cmpL.MatchFraction(); f < minLSTF {
				minLSTF = f
			}
			if cmpL.MaxEndDiff > maxEnd {
				maxEnd = cmpL.MaxEndDiff
			}
			clamped += lstf.Clamped()

			fifo := sched.MustNew("fifo")
			upsAddFlows(fifo, weights, c)
			viaFIFO, err := replay.Drive(fifo, arr, c, nil)
			if err != nil {
				panic(err)
			}
			if f := replay.Compare(recorded, viaFIFO).MatchFraction(); f < minFIFO {
				minFIFO = f
			}
		}
		rows[i] = row{minLSTF, minFIFO, maxEnd, clamped}
	})
	for i, d := range disciplines {
		w := rows[i]
		r.addf("%-5s  min %.3f     min %.3f      %.3g  (clamped pushes: %d)",
			d.name, w.minLSTF, w.minFIFO, w.maxEnd, w.clamped)
		r.set("lstf_match_"+d.name, w.minLSTF)
		r.set("fifo_match_"+d.name, w.minFIFO)
		r.set("lstf_enddiff_"+d.name, w.maxEnd)
	}
	r.addf("UPS (Mittal et al.): LSTF with recorded slacks is a universal single-switch replayer; header-free FIFO is not")
	return r
}

// upsWorkload generates one seeded arrival script (sorted by time): a
// burst near t = 0 plus a sporadic tail per flow.
func upsWorkload(seed int64) (arr []replay.Arrival, weights map[int]float64) {
	rng := rand.New(rand.NewSource(seed))
	nflows := 3 + rng.Intn(4)
	weights = make(map[int]float64)
	const c = 1e4
	for f := 1; f <= nflows; f++ {
		weights[f] = 0.1 + rng.Float64()
		for i := 0; i < 5; i++ {
			arr = append(arr, replay.Arrival{At: rng.Float64() * 1e-2, Flow: f, Bytes: 64 + rng.Float64()*1436})
		}
		t := rng.Float64() * 0.1
		for i := 0; i < 5; i++ {
			size := 64 + rng.Float64()*1436
			arr = append(arr, replay.Arrival{At: t, Flow: f, Bytes: size})
			t += size / (weights[f] * c) * (0.5 + rng.Float64())
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].At < arr[j].At })
	return arr, weights
}

func upsAddFlows(s sched.Interface, weights map[int]float64, c float64) {
	for f := 1; f <= len(weights); f++ {
		if err := s.AddFlow(f, weights[f]*c); err != nil {
			panic(err)
		}
	}
}
