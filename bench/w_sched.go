package main

import (
	"math"
	"math/rand"

	_ "repro/internal/core" // registers "sfq", the name production resolves
	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The two sched-* workloads drive the discipline behind the name "sfq" with
// nothing around it: a flow table of schedFlows flows, a virtual clock that
// steps clockStep per operation, packets recycled through sched.PacketPool.
const (
	schedFlows    = 4096
	schedStanding = 4       // packets per flow in the standing backlog
	clockStep     = 10e-6   // seconds per operation
	lengthRing    = 1 << 16 // generated packet lengths, cycled
	burstFlows    = 64
	churnEvery    = 1024 // sporadic: operations between RemoveFlow+AddFlow
	fairPairs     = 16
)

// schedInputs are the generated inputs of the sched-* workloads.
type schedInputs struct {
	weights []float64 // per flow, 100..800
	lengths []float64 // 64..1500 bytes
	maxLen  float64
	// bursts is a sequence of flow ids in which every aligned group of
	// burstFlows ids is distinct (consecutive chunks of permutations).
	bursts []int
	// churn is the sequence of (flow, new weight) re-registrations.
	churnFlow   []int
	churnWeight []float64
	pairs       [][2]int // flow pairs whose fairness is measured
}

func genSchedInputs(e *env, flows int) *schedInputs {
	rng := rand.New(rand.NewSource(e.seed))
	in := &schedInputs{weights: make([]float64, flows), lengths: make([]float64, lengthRing)}
	for f := range in.weights {
		in.weights[f] = float64(100 * (1 + rng.Intn(8)))
	}
	for i := range in.lengths {
		in.lengths[i] = float64(64 + rng.Intn(1500-64+1))
		in.maxLen = math.Max(in.maxLen, in.lengths[i])
	}
	for len(in.bursts) < 4*flows {
		in.bursts = append(in.bursts, rng.Perm(flows)...)
	}
	in.bursts = in.bursts[:len(in.bursts)/burstFlows*burstFlows]
	for i := 0; i < 1024; i++ {
		in.churnFlow = append(in.churnFlow, rng.Intn(flows))
		in.churnWeight = append(in.churnWeight, float64(100*(1+rng.Intn(8))))
	}
	for len(in.pairs) < fairPairs {
		if a, b := rng.Intn(flows), rng.Intn(flows); a != b {
			in.pairs = append(in.pairs, [2]int{a, b})
		}
	}
	e.hashFloats(in.weights...)
	e.hashFloats(in.lengths...)
	e.hashInts(in.bursts...)
	e.hashInts(in.churnFlow...)
	e.hashFloats(in.churnWeight...)
	return in
}

// newSFQ builds the discipline under test, decorated when the pass is
// traced.
func newSFQ(e *env) sched.Interface {
	s := sched.MustNew("sfq")
	if e.tr != nil {
		return &tracedSched{Interface: s, t: e.tr.track("")}
	}
	return s
}

type schedInst struct {
	e      *env
	in     *schedInputs
	s      sched.Interface
	pool   sched.PacketPool
	now    float64
	k      int // next index into in.lengths
	next   int // backlogged: flow of the next arrival
	burst  int // sporadic: next index into in.bursts
	churn  int
	sinceC int
	pairsN int // operations per trial
	flows  int
}

func newSchedInst(e *env) *schedInst {
	flows := e.pick(schedFlows, 256)
	b := &schedInst{e: e, in: genSchedInputs(e, flows), s: newSFQ(e), flows: flows}
	for f, w := range b.in.weights {
		if err := b.s.AddFlow(f, w); err != nil {
			e.q.check(false, "AddFlow(%d): %v", f, err)
		}
	}
	return b
}

const schedWarmTrials = 16 // trials that end every set-up

func (b *schedInst) length() float64 {
	l := b.in.lengths[b.k&(lengthRing-1)]
	b.k++
	return l
}

// --- sched-backlogged ---------------------------------------------------

type backloggedInst struct{ *schedInst }

func setupBacklogged(e *env, i int) instance {
	b := backloggedInst{newSchedInst(e)}
	b.pairsN = e.pick(16_384, 4_096)
	for i := 0; i < schedStanding; i++ {
		for f := 0; f < b.flows; f++ {
			p := b.pool.Get()
			p.Flow, p.Length = f, b.length()
			if err := b.s.Enqueue(b.now, p); err != nil {
				e.q.check(false, "prefill Enqueue: %v", err)
			}
		}
	}
	warmUp(b, e.pick(schedWarmTrials, 1))
	if i == 0 {
		// Every copy has the same inputs; the first measures Theorem 1, here
		// rather than after the trials so that the stretch it measures does
		// not depend on how many trials the run had time for.
		b.measureFairness()
	}
	return b
}

// run is the steady state: every arrival goes to the flow that was just
// served, so every flow keeps its standing backlog, the heap never shrinks
// and every dequeue is a FixMin. With recs set it records the service order.
func (b backloggedInst) run(n int, recs *[]sim.ServiceRecord) (failed int64) {
	s, in := b.s, b.in
	now, k, next := b.now, b.k, b.next
	for i := 0; i < n; i++ {
		now += clockStep
		p := b.pool.Get()
		p.Flow, p.Length = next, in.lengths[k&(lengthRing-1)]
		k++
		if err := s.Enqueue(now, p); err != nil {
			failed++
			b.pool.Put(p)
			continue
		}
		out, ok := s.Dequeue(now)
		if !ok {
			failed++
			continue
		}
		if recs != nil {
			*recs = append(*recs, sim.ServiceRecord{Flow: out.Flow, Start: float64(i), End: float64(i) + 0.5, Bytes: out.Length})
		}
		next = out.Flow
		b.pool.Put(out)
	}
	b.now, b.k, b.next = now, k, next
	if s.Len() != b.flows*schedStanding {
		failed++ // a packet was lost or duplicated
	}
	return failed
}

func (b backloggedInst) trial() (ops, failed int64) {
	return int64(b.pairsN), b.run(b.pairsN, nil)
}

func (b backloggedInst) close() {}

// measureFairness measures Theorem 1 on a recorded stretch of the same loop:
// every flow is backlogged throughout, so every pair is jointly backlogged
// over the whole stretch.
func (b backloggedInst) measureFairness() {
	n := b.e.pick(200_000, 20_000)
	recs := make([]sim.ServiceRecord, 0, n)
	failed := b.run(n, &recs)
	b.e.q.check(failed == 0, "sched-backlogged: %d failed operations in the fairness stretch", failed)
	whole := []sim.Interval{{Start: 0, End: float64(n)}}
	worst := 0.0
	for _, pr := range b.in.pairs {
		f, m := pr[0], pr[1]
		rf, rm := b.in.weights[f], b.in.weights[m]
		h := fairness.MaxUnfairness(recs, whole, whole, f, m, rf, rm)
		worst = math.Max(worst, h/qos.SFQFairnessBound(b.in.maxLen, rf, b.in.maxLen, rm))
	}
	b.e.q.check(worst <= 1, "sched-backlogged: fair_ratio %.4f > 1 (Theorem 1)", worst)
	b.e.q.reportFair(worst)
}

var schedBacklogged = workloadDef{
	name: "sched-backlogged",
	op:   "one enqueue+dequeue pair",
	why: "The paper's algorithm with nothing around it: 4096 always-backlogged flows behind the name sfq, " +
		"every dequeue a FixMin on a heap that never shrinks. All of the time is discipline + FlowSet.",
	setup:        setupBacklogged,
	minInstances: 5,
}

// --- sched-sporadic -----------------------------------------------------

type sporadicInst struct{ *schedInst }

func setupSporadic(e *env, _ int) instance {
	b := sporadicInst{newSchedInst(e)}
	b.pairsN = e.pick(16_384, 4_096)
	warmUp(b, e.pick(schedWarmTrials, 1))
	return b
}

// trial: a burst of arrivals to burstFlows distinct idle flows, then a full
// drain including the empty Dequeue that ends the busy period (and resets
// v). Every enqueue inserts a flow into the heap and every dequeue removes
// one; every churnEvery operations an idle flow is removed and re-added
// with a new weight.
func (b sporadicInst) trial() (ops, failed int64) {
	s, in := b.s, b.in
	for done := 0; done < b.pairsN; done += burstFlows {
		if b.burst+burstFlows > len(in.bursts) {
			b.burst = 0
		}
		for _, f := range in.bursts[b.burst : b.burst+burstFlows] {
			b.now += clockStep
			p := b.pool.Get()
			p.Flow, p.Length = f, b.length()
			if err := s.Enqueue(b.now, p); err != nil {
				failed++
				b.pool.Put(p)
			}
		}
		b.burst += burstFlows
		for i := 0; i < burstFlows; i++ {
			b.now += clockStep
			out, ok := s.Dequeue(b.now)
			if !ok {
				failed++
				continue
			}
			b.pool.Put(out)
		}
		if _, ok := s.Dequeue(b.now); ok || s.Len() != 0 {
			failed++ // the busy period must end here, with nothing left
		}
		if b.sinceC += burstFlows; b.sinceC >= churnEvery {
			b.sinceC = 0
			c := b.churn % len(in.churnFlow)
			b.churn++
			f, w := in.churnFlow[c], in.churnWeight[c]
			if err := s.RemoveFlow(f); err != nil {
				failed++
			}
			if err := s.AddFlow(f, w); err != nil {
				failed++
			}
		}
	}
	return int64(b.pairsN), failed
}

func (b sporadicInst) close() {}

var schedSporadic = workloadDef{
	name: "sched-sporadic",
	op:   "one enqueue+dequeue pair",
	why: "Same discipline and flow table used the other way: bursts to 64 idle flows then a full drain, so " +
		"every enqueue inserts into the heap, every dequeue removes, v resets each burst, and flows churn.",
	setup:        setupSporadic,
	minInstances: 5,
}
