package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	_ "repro/internal/core" // registers the SFQ family in the sched registry
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/sim"
)

// seedsPerScheduler is the number of independent random workloads every
// scheduler must survive. Each seed fully determines its workload.
const seedsPerScheduler = 1000

// pktsPerFlow keeps a single run small enough that the O(n²) interval
// scans stay cheap; coverage comes from seed count, not workload size.
const pktsPerFlow = 12

// refMode selects the differential comparison against the brute-force
// reference SFQ.
type refMode int

const (
	refNone  refMode = iota
	refOrder         // same service order (flow, seq, length) and times
	refExact         // refOrder plus identical start/finish tags
)

// sut describes one scheduler under test: how to build it for a workload
// and which theorem checkers its discipline is required to satisfy.
type sut struct {
	name  string
	make  func(w Workload) sched.Interface
	kinds []Kind

	thm1 func(w Workload) func(lf, rf, lm, rm float64) float64
	// thm1Deep restricts the fairness check to Bursty (deep-queue)
	// workloads. DRR's guarantee presumes every turn can consume its full
	// quantum; a flow that is backlogged with queue depth ~1 (each packet
	// in flight when the next arrives) is served at its arrival rate and
	// forfeits the rest of its quantum when its queue empties, so its
	// normalized-service deficit grows with the interval — a known DRR
	// artifact (the tag-based disciplines have no such premise).
	thm1Deep  bool
	thm2      bool // Theorem 2 throughput guarantee
	thm4      bool // Theorem 4 delay guarantee (SFQ family)
	eq56      bool // SCFQ delay bound
	pgps      bool // GPS fluid oracle comparison (WFQ)
	srpt      bool // shortest-remaining-backlog-first service (SRPT)
	aggFIFO   bool // aggregate arrival-order service (FIFO+ at one hop)
	delayName string
	delay     func(w Workload) func(eat float64, p *sched.Packet, rf float64) float64
	tagName   string
	tagKey    func(*sched.Packet) float64
	ref       refMode

	// level checks strict priority: level(flow) orders the flows, lowest
	// first.
	level func(flow int) int
}

var (
	allKinds    = []Kind{Bursty, Sporadic, OnOff, Greedy, VariableRate}
	noRateKinds = []Kind{Bursty, Sporadic, OnOff, Greedy}
)

func sfqThm1(Workload) func(lf, rf, lm, rm float64) float64 { return qos.SFQFairnessBound }

func startTag(p *sched.Packet) float64    { return p.VirtualStart }
func finishTag(p *sched.Packet) float64   { return p.VirtualFinish }
func deadlineTag(p *sched.Packet) float64 { return p.Deadline }

// drrQuantum sizes DRR's per-unit-weight quantum so every flow's quantum
// covers its largest packet (the regime DRR's O(1) analysis assumes).
func drrQuantum(w Workload) float64 {
	minW := math.Inf(1)
	for _, f := range w.Flows {
		if f.Weight < minW {
			minW = f.Weight
		}
	}
	return w.LmaxAll() / minW
}

// drrThm1 is the DRR analogue of Theorem 1 for quantum q·w_f per round.
// Over the turns of flow f intersecting a joint backlog interval the
// deficit telescopes, so W_f/r_f <= T_f·q + l_f^max/r_f and
// W_m/r_m >= (T_m−2)·q − l_m^max/r_m (its first and last turns may be cut
// to nothing); round-robin alternation gives T_f <= T_m + 1, hence
// |W_f/r_f − W_m/r_m| <= 3q + l_f^max/r_f + l_m^max/r_m — the weight-scaled
// form of the 1.2 critique that DRR's unfairness grows with the quantum.
func drrThm1(w Workload) func(lf, rf, lm, rm float64) float64 {
	q := drrQuantum(w)
	return func(lf, rf, lm, rm float64) float64 { return 3*q + lf/rf + lm/rm }
}

func faThm1(w Workload) func(lf, rf, lm, rm float64) float64 {
	lmax := w.LmaxAll()
	return func(lf, rf, lm, rm float64) float64 {
		return qos.FAFairnessBound(w.C, lf, rf, lm, rm, lmax)
	}
}

func wfqDelay(w Workload) func(eat float64, p *sched.Packet, rf float64) float64 {
	lmax := w.LmaxAll()
	return func(eat float64, p *sched.Packet, rf float64) float64 {
		return qos.WFQDelayBound(w.C, eat, p.Length, rf, lmax)
	}
}

func faDelay(w Workload) func(eat float64, p *sched.Packet, rf float64) float64 {
	lmax := w.LmaxAll()
	return func(eat float64, p *sched.Packet, rf float64) float64 {
		return qos.FADelayBound(w.C, eat, p.Length, rf, lmax)
	}
}

// mk builds a scheduler through the registry with workload-independent
// options. The blank core import above registers the SFQ family, making
// those names resolvable here.
func mk(name string, opts ...sched.Option) func(Workload) sched.Interface {
	return func(Workload) sched.Interface { return sched.MustNew(name, opts...) }
}

// suts lists every registered discipline with the strongest checker set it
// guarantees. Construction goes through the sched registry — the same path
// cmd/sfqsim and cmd/experiments use — so conformance certifies exactly
// what the tools ship; registry_test.go separately pins registry output to
// the direct constructors.
func suts() []sut {
	return []sut{
		{
			name: "sfq", make: mk("sfq"),
			kinds: allKinds, thm1: sfqThm1, thm2: true, thm4: true,
			tagName: "start tag", tagKey: startTag, ref: refExact,
		},
		{
			name: "sfq-lowweight", make: mk("sfq-lowweight"),
			kinds: allKinds, thm1: sfqThm1, thm2: true, thm4: true,
			tagName: "start tag", tagKey: startTag, // tie rule differs from the reference: no lockstep
		},
		{
			name: "flowsfq", make: mk("flowsfq"),
			kinds: allKinds, thm1: sfqThm1, thm2: true, thm4: true,
			tagName: "start tag", tagKey: startTag, ref: refExact,
		},
		{
			name: "hsfq-flat", make: mk("hsfq"),
			kinds: noRateKinds, thm1: sfqThm1, thm2: true, thm4: true,
			ref: refOrder, // HSFQ does not stamp packet tags
		},
		{
			name: "scfq", make: mk("scfq"),
			kinds: allKinds, thm1: sfqThm1, eq56: true,
			tagName: "finish tag", tagKey: finishTag,
		},
		{
			name: "wfq", make: func(w Workload) sched.Interface {
				return sched.MustNew("wfq", sched.WithAssumedCapacity(w.C))
			},
			kinds: noRateKinds, pgps: true, delayName: "WFQ delay", delay: wfqDelay,
		},
		{
			name: "fqs", make: func(w Workload) sched.Interface {
				return sched.MustNew("fqs", sched.WithAssumedCapacity(w.C))
			},
			kinds: noRateKinds,
		},
		{
			name: "vclock", make: mk("vclock"),
			kinds: allKinds, delayName: "Virtual Clock delay", delay: wfqDelay,
		},
		{
			name: "drr", make: func(w Workload) sched.Interface {
				return sched.MustNew("drr", sched.WithQuantum(drrQuantum(w)))
			},
			kinds: noRateKinds, thm1: drrThm1, thm1Deep: true,
		},
		{
			name: "fifo", make: mk("fifo"),
			kinds: allKinds,
		},
		{
			name: "edd", make: mk("edd"),
			kinds: allKinds,
		},
		{
			name: "fairairport", make: mk("fairairport"),
			kinds: noRateKinds, thm1: faThm1, delayName: "Fair Airport delay", delay: faDelay,
		},
		{
			name: "priority", make: mk("priority"),
			kinds: allKinds, level: func(flow int) int { return flow },
		},
		// The pifo-* aliases of the tag-based family (internal/pifo). Each
		// carries the same checker set as its plain name; TestPIFOEquivalence
		// additionally holds the alias to the plain name's schedule.
		{
			name: "pifo-sfq", make: mk("pifo-sfq"),
			kinds: allKinds, thm1: sfqThm1, thm2: true, thm4: true,
			tagName: "start tag", tagKey: startTag, ref: refExact,
		},
		{
			name: "pifo-scfq", make: mk("pifo-scfq"),
			kinds: allKinds, thm1: sfqThm1, eq56: true,
			tagName: "finish tag", tagKey: finishTag,
		},
		{
			name: "pifo-wfq", make: func(w Workload) sched.Interface {
				return sched.MustNew("pifo-wfq", sched.WithAssumedCapacity(w.C))
			},
			kinds: noRateKinds, pgps: true, delayName: "WFQ delay", delay: wfqDelay,
		},
		{
			name: "pifo-vclock", make: mk("pifo-vclock"),
			kinds: allKinds, delayName: "Virtual Clock delay", delay: wfqDelay,
		},
		{
			name: "pifo-edd", make: mk("pifo-edd"),
			kinds: allKinds,
		},
		// The UPS disciplines. LSTF with unset slacks falls back to a
		// per-flow default, so only the generic invariants apply; SRPT and
		// FIFO+ each get their defining service-order checker.
		{
			name: "lstf", make: mk("lstf"),
			kinds: allKinds,
		},
		{
			name: "srpt", make: mk("srpt"),
			kinds: allKinds, srpt: true,
		},
		{
			name: "fifo+", make: mk("fifo+"),
			kinds: allKinds, aggFIFO: true,
			tagName: "deadline", tagKey: deadlineTag,
		},
		// Composed trees (internal/hier): heterogeneous disciplines at the
		// nodes, flows routed across the sinks. Only the generic invariants
		// apply — each sink runs its own virtual clock, so no tag is
		// globally monotone across the merged dequeue sequence (per-flow
		// monotonicity is pinned by the tagMonoSpecs).
		{
			name: "hier:sfq(drr,edd)", make: mk("hier:sfq(drr,edd)"),
			kinds: allKinds,
		},
		{
			name: "hier:sfq(edd,scfq,drr,fifo)", make: mk("hier:sfq(edd,scfq,drr,fifo)"),
			kinds: allKinds,
		},
		{
			name: "hier:pifo-sfq(pifo-sfq,pifo-sfq)", make: mk("hier:pifo-sfq(pifo-sfq,pifo-sfq)"),
			kinds: allKinds,
		},
		// AddFlow routes a flow to sink id mod 2, so even flows are the
		// FIFO class that goes first.
		{
			name: "hier:priority(fifo,scfq)", make: mk("hier:priority(fifo,scfq)"),
			kinds: allKinds, level: func(flow int) int { return ((flow % 2) + 2) % 2 },
		},
	}
}

// runOne drives s over the seed's workload and applies every checker the
// scheduler claims. It returns the first violation (nil = conformant), so
// the mutant tests can reuse it as the detection harness.
func runOne(s sut, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	kind := s.kinds[int(seed)%len(s.kinds)]
	w := Random(rng, kind, pktsPerFlow)
	sch := s.make(w)
	tr, res, err := Run(sch, w, nil)
	if err != nil {
		return fmt.Errorf("drive: %w", err)
	}
	mon := res.Mon
	if err := CheckAlignment(tr, mon); err != nil {
		return err
	}
	if err := CheckConservation(tr, sch, w); err != nil {
		return err
	}
	if err := CheckPerFlowFIFO(tr); err != nil {
		return err
	}
	if err := CheckWorkConserving(tr, mon); err != nil {
		return err
	}
	if s.tagKey != nil {
		if err := CheckDeqTagMonotone(tr, s.tagName, s.tagKey); err != nil {
			return err
		}
	}
	rates := w.HasPacketRates()
	if s.thm1 != nil && !rates && (!s.thm1Deep || w.Kind == Bursty) {
		if err := CheckTheorem1(mon, w, s.thm1(w)); err != nil {
			return err
		}
	}
	if s.thm2 && !rates {
		if err := CheckTheorem2(mon, w); err != nil {
			return err
		}
	}
	if s.thm4 {
		if err := CheckTheorem4Delay(tr, mon, w); err != nil {
			return err
		}
	}
	if s.eq56 {
		if err := CheckSCFQDelay(tr, mon, w); err != nil {
			return err
		}
	}
	if s.pgps {
		if err := CheckPGPS(tr, mon, w); err != nil {
			return err
		}
	}
	if s.srpt {
		if err := CheckSRPTService(tr); err != nil {
			return err
		}
	}
	if s.aggFIFO {
		if err := CheckAggregateFIFO(tr); err != nil {
			return err
		}
	}
	if s.level != nil {
		if err := CheckStrictPriority(tr, s.level); err != nil {
			return err
		}
	}
	if s.delay != nil && !rates {
		if err := CheckDelayBound(tr, mon, w, s.delayName, s.delay(w)); err != nil {
			return err
		}
	}
	if s.ref != refNone {
		if err := compareWithRef(w, tr, mon, s.ref == refExact); err != nil {
			return err
		}
	}
	return nil
}

// compareWithRef replays the workload on the brute-force reference SFQ and
// requires the same packet-for-packet schedule: order, identity, and
// completion times, plus (exact mode) the eq (4)–(5) tags themselves.
func compareWithRef(w Workload, tr *Trace, mon *sim.Monitor, exact bool) error {
	rtr, rres, err := Run(NewRefSFQ(), w, nil)
	if err != nil {
		return fmt.Errorf("reference drive: %w", err)
	}
	if len(rtr.Deq) != len(tr.Deq) {
		return fmt.Errorf("differential: served %d packets, reference served %d", len(tr.Deq), len(rtr.Deq))
	}
	recs, refRecs := mon.ServiceRecords(), rres.Mon.ServiceRecords()
	for i := range tr.Deq {
		a, b := tr.Deq[i].P, rtr.Deq[i].P
		if a.Flow != b.Flow || a.Seq != b.Seq || a.Length != b.Length {
			return fmt.Errorf("differential: dequeue %d is flow %d seq %d (%v B); reference served flow %d seq %d (%v B)",
				i, a.Flow, a.Seq, a.Length, b.Flow, b.Seq, b.Length)
		}
		if exact {
			if math.Abs(a.VirtualStart-b.VirtualStart) > tol(b.VirtualStart) {
				return fmt.Errorf("differential: dequeue %d start tag %v, reference %v", i, a.VirtualStart, b.VirtualStart)
			}
			if math.Abs(a.VirtualFinish-b.VirtualFinish) > tol(b.VirtualFinish) {
				return fmt.Errorf("differential: dequeue %d finish tag %v, reference %v", i, a.VirtualFinish, b.VirtualFinish)
			}
		}
		if ra, rb := recs[i], refRecs[i]; math.Abs(ra.End-rb.End) > tol(rb.End) {
			return fmt.Errorf("differential: dequeue %d completes at %v, reference at %v", i, ra.End, rb.End)
		}
	}
	return nil
}

// TestConformanceMatrix is the main property suite: every scheduler must
// survive seedsPerScheduler randomized workloads under its full checker
// set (differential oracle + theorem-bound invariants + generic sanity).
// Seeds are sharded across a GOMAXPROCS worker pool; each seed is a pure
// function of its number and failures are scanned in seed order, so the
// first reported failure is the one the serial loop would have hit.
func TestConformanceMatrix(t *testing.T) {
	for _, s := range suts() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			n := seedsPerScheduler
			if testing.Short() {
				n = 100
			}
			errs := RunMatrix(n, 0, func(seed int64) error { return runOne(s, seed) })
			if seed, err := FirstFailure(errs); err != nil {
				t.Fatalf("seed %d (kind %d): %v", seed, int(seed)%len(s.kinds), err)
			}
		})
	}
}
