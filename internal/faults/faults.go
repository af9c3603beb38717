// Package faults is a deterministic, seeded fault-injection layer over the
// simulator. It composes with the existing pieces instead of replacing
// them:
//
//   - Modulated wraps any server.Process and degrades it over scripted
//     episodes (rate degradation, flapping, full stalls — including
//     FC/EBF-violating zero-rate intervals), so a scheduler can be run
//     against a server that breaks the assumptions its analysis rests on.
//   - Outage schedules link up/down transitions on a sim.Link: the frame
//     in flight at failure time is lost (DropLinkDown), queued frames
//     survive the outage, and transmission resumes from the scheduler's
//     head on recovery.
//   - Lossy is a consumer shim injecting random frame loss and corruption
//     with per-cause, per-flow drop accounting.
//   - FlowChurn repeatedly adds and removes a flow on a live network built
//     by topo.Build, exercising the RemoveFlow teardown paths under load.
//
// Every injector is driven either by an explicit script or by an explicit
// *rand.Rand, never by global randomness: the same seed always yields the
// same fault schedule, which is what lets the chaos conformance matrix
// assert deterministic replay.
package faults

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/eventq"
	"repro/internal/sim"
)

// Drop causes recorded by the fault injectors, extending the taxonomy in
// package sim.
const (
	// DropRandomLoss: the frame was discarded by the random-loss injector.
	DropRandomLoss sim.DropCause = "random-loss"
	// DropCorrupt: the frame was corrupted in transit and discarded at the
	// first checksum verification.
	DropCorrupt sim.DropCause = "corrupt"
)

// Episode is one interval of degraded service: between Start and
// Start+Duration the wrapped server runs at Factor times its scripted
// speed. Factor 0 is a full stall; Factor 1 is a no-op; factors above 1
// model over-provisioned recovery bursts. Outside every episode the factor
// is 1.
type Episode struct {
	Start    float64
	Duration float64 // may be math.Inf(1) for a terminal, permanent episode
	Factor   float64
}

// End returns the episode's end time (possibly +Inf).
func (e Episode) End() float64 { return e.Start + e.Duration }

func validEpisodes(eps []Episode) bool {
	prevEnd := math.Inf(-1)
	for i, e := range eps {
		if e.Start < 0 || e.Start < prevEnd {
			return false
		}
		if e.Duration <= 0 || math.IsNaN(e.Duration) {
			return false
		}
		if math.IsInf(e.Duration, 1) && i != len(eps)-1 {
			return false // an infinite episode must be the last
		}
		if e.Factor < 0 || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
			return false
		}
		prevEnd = e.End()
	}
	return true
}

// RandomEpisodes draws up to n degradation episodes inside [0, horizon),
// each lasting at most maxDur. Roughly a third are full stalls (factor 0);
// the rest degrade to a uniform factor in (0, 1). Overlapping draws are
// discarded, so fewer than n episodes may be returned. The result is
// sorted, non-overlapping, and fully determined by rng.
func RandomEpisodes(rng *rand.Rand, n int, horizon, maxDur float64) []Episode {
	if n <= 0 || horizon <= 0 || maxDur <= 0 {
		panic("faults: RandomEpisodes needs positive n, horizon, maxDur")
	}
	draws := make([]Episode, 0, n)
	for i := 0; i < n; i++ {
		e := Episode{
			Start:    rng.Float64() * horizon,
			Duration: rng.Float64()*maxDur + maxDur*0.01,
		}
		if rng.Float64() < 1.0/3 {
			e.Factor = 0
		} else {
			e.Factor = 0.05 + 0.9*rng.Float64()
		}
		draws = append(draws, e)
	}
	sort.Slice(draws, func(i, j int) bool { return draws[i].Start < draws[j].Start })
	eps := draws[:0]
	prevEnd := math.Inf(-1)
	for _, e := range draws {
		if e.Start < prevEnd {
			continue
		}
		eps = append(eps, e)
		prevEnd = e.End()
	}
	return eps
}

// Outage is one scheduled link failure: the link goes down at At and comes
// back at At+Duration.
type Outage struct {
	At       float64
	Duration float64
}

// ScheduleOutages installs the outages on a link via the event queue. The
// outages must be sorted and non-overlapping with positive durations.
func ScheduleOutages(q *eventq.Queue, link *sim.Link, outages []Outage) {
	prevEnd := math.Inf(-1)
	for _, o := range outages {
		if o.At < 0 || o.At < prevEnd || o.Duration <= 0 ||
			math.IsNaN(o.At) || math.IsNaN(o.Duration) || math.IsInf(o.Duration, 1) {
			panic("faults: outages must be sorted, non-overlapping, finite, positive")
		}
		prevEnd = o.At + o.Duration
		q.AtCall(o.At, linkFail, link)
		q.AtCall(prevEnd, linkRecover, link)
	}
}

// linkFail / linkRecover dispatch outage transitions without the per-outage
// method-value allocation of q.At(at, link.Fail).
func linkFail(arg any)    { arg.(*sim.Link).Fail() }
func linkRecover(arg any) { arg.(*sim.Link).Recover() }

// RandomOutages draws up to n link outages inside [0, horizon), each
// lasting at most maxDur, sorted and non-overlapping (overlapping draws
// are discarded). Fully determined by rng.
func RandomOutages(rng *rand.Rand, n int, horizon, maxDur float64) []Outage {
	if n <= 0 || horizon <= 0 || maxDur <= 0 {
		panic("faults: RandomOutages needs positive n, horizon, maxDur")
	}
	draws := make([]Outage, 0, n)
	for i := 0; i < n; i++ {
		draws = append(draws, Outage{
			At:       rng.Float64() * horizon,
			Duration: rng.Float64()*maxDur + maxDur*0.01,
		})
	}
	sort.Slice(draws, func(i, j int) bool { return draws[i].At < draws[j].At })
	out := draws[:0]
	prevEnd := math.Inf(-1)
	for _, o := range draws {
		if o.At < prevEnd {
			continue
		}
		out = append(out, o)
		prevEnd = o.At + o.Duration
	}
	return out
}
