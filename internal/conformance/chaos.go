package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/eventq"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// FaultPlan is one seeded chaos schedule: server degradation episodes,
// link outages, and random loss/corruption downstream of the link. A plan
// plus a workload plus a scheduler fully determines a run.
type FaultPlan struct {
	Episodes []faults.Episode
	Outages  []faults.Outage
	PLoss    float64
	PCorrupt float64
	LossSeed int64
}

// RandomFaultPlan draws a fault schedule for a run expected to last about
// `horizon` seconds on the healthy server. Every fault class appears with
// substantial probability, and some draws combine all three. Episode
// factors include full stalls, so the plans routinely violate any FC/EBF
// bound the server might claim.
func RandomFaultPlan(rng *rand.Rand, horizon float64) FaultPlan {
	plan := FaultPlan{LossSeed: rng.Int63()}
	if rng.Float64() < 0.8 {
		plan.Episodes = faults.RandomEpisodes(rng, 1+rng.Intn(4), horizon, horizon/6)
	}
	if rng.Float64() < 0.6 {
		plan.Outages = faults.RandomOutages(rng, 1+rng.Intn(3), horizon, horizon/10)
	}
	if rng.Float64() < 0.5 {
		plan.PLoss = rng.Float64() * 0.2
		plan.PCorrupt = rng.Float64() * 0.1
	}
	return plan
}

// ChaosResult carries the artifacts of a chaos run.
type ChaosResult struct {
	Trace *Trace
	Sched sched.Interface
	Link  *sim.Link
	Mon   *sim.Monitor
	Sink  *sim.Sink
	Lossy *faults.Lossy // nil when the plan injects no loss
}

// ChaosRun drives sch over the workload on a link whose capacity process
// is degraded by the plan's episodes, whose link fails and recovers per
// the plan's outages, and whose output passes through a lossy shim. The
// event queue is run to completion: every scheduled fault fires.
func ChaosRun(sch sched.Interface, w Workload, plan FaultPlan) (*ChaosResult, error) {
	for _, f := range w.Flows {
		if err := sch.AddFlow(f.Flow, f.Weight); err != nil {
			return nil, err
		}
	}
	rec, tr := Record(sch)
	proc := server.Process(server.NewConstantRate(w.C))
	if len(plan.Episodes) > 0 {
		proc = faults.NewModulated(proc, plan.Episodes)
	}
	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	var out sim.Consumer = sink
	var lossy *faults.Lossy
	if plan.PLoss > 0 || plan.PCorrupt > 0 {
		lossy = faults.NewLossy(rand.New(rand.NewSource(plan.LossSeed)), sink, plan.PLoss, plan.PCorrupt)
		out = lossy
	}
	link := sim.NewLink(q, "chaos", rec, proc, out)
	mon := sim.MonitorAll(link)
	faults.ScheduleOutages(q, link, plan.Outages)
	for _, a := range w.Arrivals {
		a := a
		q.At(a.At, func() {
			link.Deliver(&sim.Frame{Flow: a.Flow, Bytes: a.Bytes, Rate: a.Rate, Created: q.Now()})
		})
	}
	q.Run()
	return &ChaosResult{Trace: tr, Sched: sch, Link: link, Mon: mon, Sink: sink, Lossy: lossy}, nil
}

// CheckChaosConservation audits a chaos run end to end: every offered
// frame is either received at the sink or counted in exactly one drop
// bucket, nothing remains queued after the queue drains, and the link's
// service records are sequential (transmissions never overlap). Work
// conservation in the classical sense is checked only between faults by
// the healthy-path suite; under outages and stalls the sequentiality +
// full-accounting pair is the strongest invariant that still holds.
func CheckChaosConservation(res *ChaosResult, w Workload) error {
	offered := make(map[int]int64)
	for _, a := range w.Arrivals {
		offered[a.Flow]++
	}
	for _, f := range w.Flows {
		got := res.Sink.Count(f.Flow) + res.Link.DropsByFlow(f.Flow)
		if res.Lossy != nil {
			got += res.Lossy.DropsByFlow(f.Flow)
		}
		if got != offered[f.Flow] {
			return fmt.Errorf("chaos conservation: flow %d offered %d, accounted %d (sink %d, link drops %d)",
				f.Flow, offered[f.Flow], got, res.Sink.Count(f.Flow), res.Link.DropsByFlow(f.Flow))
		}
	}
	if n := res.Link.QueuedFrames(); n != 0 {
		return fmt.Errorf("chaos conservation: %d frames still queued after drain", n)
	}
	if b := res.Link.QueuedBytes(); b != 0 {
		return fmt.Errorf("chaos conservation: QueuedBytes = %v after drain", b)
	}
	if n := res.Sched.Len(); n != 0 {
		return fmt.Errorf("chaos conservation: scheduler Len() = %d after drain", n)
	}
	// Enqueued packets either completed transmission or were dropped after
	// acceptance (link failure, stall): the totals must close exactly.
	afterAccept := res.Link.DropsFor(sim.DropLinkDown) + res.Link.DropsFor(sim.DropStalled)
	if int64(len(res.Trace.Enq)) != int64(len(res.Trace.Deq)) {
		// Dropped-in-flight packets were dequeued before being lost, so
		// Enq == Deq still holds for every accepted packet…
		return fmt.Errorf("chaos conservation: %d enqueues vs %d dequeues", len(res.Trace.Enq), len(res.Trace.Deq))
	}
	recs := res.Mon.ServiceRecords()
	if served := int64(len(recs)); served+afterAccept != int64(len(res.Trace.Deq)) {
		return fmt.Errorf("chaos conservation: %d dequeued != %d transmitted + %d dropped in flight",
			len(res.Trace.Deq), served, afterAccept)
	}
	if err := CheckPerFlowFIFO(res.Trace); err != nil {
		return err
	}
	for i := 0; i+1 < len(recs); i++ {
		a, b := recs[i], recs[i+1]
		if b.Start < a.End-tol(a.End) {
			return fmt.Errorf("chaos sequentiality: transmission %d starts at %v before %d ends at %v",
				i+1, b.Start, i, a.End)
		}
	}
	return nil
}

// ChaosHorizon estimates the healthy-server duration of a workload so a
// fault schedule can be drawn that lands inside the busy period.
func ChaosHorizon(w Workload) float64 {
	total := 0.0
	for _, a := range w.Arrivals {
		total += a.Bytes
	}
	last := 0.0
	for _, a := range w.Arrivals {
		if a.At > last {
			last = a.At
		}
	}
	return last + 2*total/w.C
}

// ChaosReplay is one self-contained cell of the chaos matrix: it derives
// the seed's workload (pkts packets per flow, kind chosen round-robin by
// seed) and fault plan, runs mk's scheduler under them, audits
// conservation, and returns the replay digest. A pure function of its
// arguments, which is what lets RunMatrix shard seeds across workers and
// the benchmarks time a representative cell.
func ChaosReplay(mk func(Workload) sched.Interface, kinds []Kind, pkts int, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	kind := kinds[int(seed)%len(kinds)]
	w := Random(rng, kind, pkts)
	plan := RandomFaultPlan(rng, ChaosHorizon(w))
	res, err := ChaosRun(mk(w), w, plan)
	if err != nil {
		return "", err
	}
	if err := CheckChaosConservation(res, w); err != nil {
		return "", err
	}
	return res.Digest(w), nil
}

// Digest summarizes a chaos run for deterministic-replay comparison: the
// full dequeue sequence with timestamps, the per-cause drop counters of
// link and lossy shim, and the per-flow sink totals. Two runs of the same
// (scheduler, workload, plan) triple must produce identical digests.
func (res *ChaosResult) Digest(w Workload) string {
	var b strings.Builder
	for _, st := range res.Trace.Deq {
		fmt.Fprintf(&b, "d %d %d %.9g %.9g\n", st.P.Flow, st.P.Seq, st.P.Length, st.Now)
	}
	causes := res.Link.DropsByCause()
	if res.Lossy != nil {
		for c, n := range res.Lossy.DropsByCause() {
			causes[c] += n
		}
	}
	keys := make([]string, 0, len(causes))
	for c := range causes {
		keys = append(keys, string(c))
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "x %s %d\n", k, causes[sim.DropCause(k)])
	}
	for _, f := range w.Flows {
		fmt.Fprintf(&b, "s %d %d %.9g\n", f.Flow, res.Sink.Count(f.Flow), res.Sink.Bytes(f.Flow))
	}
	return b.String()
}
