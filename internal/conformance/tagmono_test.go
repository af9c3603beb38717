package conformance

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sched"
)

// The flow-indexed scheduling core (sched.FlowQ / sched.FlowHeap) keeps
// only each flow's head packet in the cross-flow heap, so its O(log B)
// complexity and its pop-order equivalence with the old packet-level heaps
// both rest on one property: within a flow, scheduling keys never decrease
// in enqueue order. This file is the property test for that invariant,
// discipline by discipline, over randomized workloads — the runtime
// counterpart of the schedassert build-tag check inside FlowQ.Push.

// tagMonoSpec names the per-flow-monotone tag a discipline stamps. Tags
// are compared exactly (no epsilon): the analytical argument gives
// nondecreasing keys (strictly increasing for everything except Fair
// Airport, whose rule 5 hands the next head an equal start tag after a
// GSQ service), and the heaps order by the same floats the tags hold.
type tagMonoSpec struct {
	tagName string
	key     func(*sched.Packet) float64
}

// tagMonoSpecs maps sut name -> the monotone tag to check. Disciplines
// with no per-packet tags (hsfq-flat, drr, fifo) still run on the flow
// core or a round-robin ring, but their monotonicity is structural (FIFO
// keys are a constant zero), so there is nothing packet-visible to assert.
func tagMonoSpecs() map[string]tagMonoSpec {
	return map[string]tagMonoSpec{
		"sfq":           {"start tag", startTag},   // S(j+1) = max{v, F(j)} >= F(j) > S(j), eq (4)
		"sfq-lowweight": {"start tag", startTag},   // same recurrence; only the tie rule differs
		"flowsfq":       {"start tag", startTag},   // SFQ with FIFO ties on the shared core
		"scfq":          {"finish tag", finishTag}, // F(j+1) = max{F(j), v} + l/r > F(j)
		"wfq":           {"finish tag", finishTag}, // GPS finish times are per-flow increasing
		"fqs":           {"start tag", startTag},   // schedules by GPS start times
		"vclock":        {"finish tag", finishTag}, // VC stamp advances by l/r per packet
		"edd":           {"deadline", deadlineTag}, // eat strictly increases while d_f is fixed
		"fairairport":   {"start tag", startTag},   // nondecreasing; rule 5 permits equality
		"priority":      {"deadline", deadlineTag}, // the stamped rank: the flow id, constant per flow
		// PIFO re-expressions: same recurrences, same monotone tags.
		"pifo-sfq":    {"start tag", startTag},
		"pifo-scfq":   {"finish tag", finishTag},
		"pifo-wfq":    {"finish tag", finishTag},
		"pifo-vclock": {"finish tag", finishTag},
		"pifo-edd":    {"deadline", deadlineTag},
		// UPS disciplines: the stamped rank (LSTF/FIFO+: post-clamp
		// now+slack, nondecreasing per flow because the arrival clock is;
		// SRPT: the flow's cumulative byte count, strictly increasing).
		"lstf":  {"deadline", deadlineTag},
		"srpt":  {"deadline", deadlineTag},
		"fifo+": {"deadline", deadlineTag},
		// Composed trees: a flow is routed to exactly one sink, whose
		// discipline stamps the real packets (interior nodes tag only their
		// pseudo-packets). EDD sinks stamp increasing deadlines; sinks that
		// stamp no deadline leave the field a constant zero, which is
		// trivially nondecreasing. The all-PIFO tree's sinks are PIFO-SFQ,
		// so the eq (4) start-tag recurrence holds per flow within a sink.
		"hier:sfq(drr,edd)":                {"deadline", deadlineTag},
		"hier:sfq(edd,scfq,drr,fifo)":      {"deadline", deadlineTag},
		"hier:pifo-sfq(pifo-sfq,pifo-sfq)": {"start tag", startTag},
		// The FIFO sink stamps no finish tag (a constant zero); the SCFQ
		// sink's increase per flow.
		"hier:priority(fifo,scfq)": {"finish tag", finishTag},
	}
}

// checkFlowTagMonotone walks the enqueue trace in arrival order and fails
// on the first packet whose tag drops below its flow's previous one.
// Trace stamps hold packet pointers, so tags assigned after enqueue (Fair
// Airport finalizes them at head-of-flow time) are visible here too.
func checkFlowTagMonotone(tr *Trace, spec tagMonoSpec) error {
	last := make(map[int]float64)
	seen := make(map[int]bool)
	for i, st := range tr.Enq {
		k := spec.key(st.P)
		if seen[st.P.Flow] && k < last[st.P.Flow] {
			return fmt.Errorf("enqueue %d: flow %d %s decreased: %v after %v",
				i, st.P.Flow, spec.tagName, k, last[st.P.Flow])
		}
		last[st.P.Flow] = k
		seen[st.P.Flow] = true
	}
	return nil
}

// TestPerFlowTagMonotone sweeps every tagged discipline across randomized
// narrow (2–4 flow) and wide (many backlogged flows) workloads through
// conformance.RunMatrix and asserts the flow-core invariant on each run.
func TestPerFlowTagMonotone(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 40
	}
	specs := tagMonoSpecs()
	for _, s := range suts() {
		spec, ok := specs[s.name]
		if !ok {
			continue
		}
		s, spec := s, spec
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			errs := RunMatrix(seeds, runtime.GOMAXPROCS(0), func(seed int64) error {
				rng := rand.New(rand.NewSource(seed))
				kind := s.kinds[int(seed)%len(s.kinds)]
				var w Workload
				if seed%2 == 0 {
					w = Random(rng, kind, pktsPerFlow)
				} else {
					w = RandomWide(rng, kind, 6, 12+rng.Intn(21))
				}
				tr, _, err := Run(s.make(w), w, nil)
				if err != nil {
					return err
				}
				return checkFlowTagMonotone(tr, spec)
			})
			for seed, err := range errs {
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
