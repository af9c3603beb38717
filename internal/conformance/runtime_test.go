package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rt"
	"repro/internal/sched"
)

// This file pins the real-time runtime (internal/rt) to the simulator: a
// single-shard Runtime driven by a ManualClock through the exact timeline
// the simulator produced must emit the exact same schedule — same packets,
// same order, same tags — for every registered discipline. The runtime
// adds locking, clock clamping, batching, and accounting around the
// discipline; none of that may perturb the schedule, and this test is the
// proof (the multi-shard configurations are covered by the conservation
// and race tests in internal/rt, where the single-queue theorems no
// longer pin a unique order).

// rtOptions returns the registry options each sut needs, mirroring the
// sut table's construction (workload-dependent capacities/quanta).
func rtOptions(name string, w Workload) []sched.Option {
	switch name {
	case "wfq", "fqs":
		return []sched.Option{sched.WithAssumedCapacity(w.C)}
	case "drr":
		return []sched.Option{sched.WithQuantum(drrQuantum(w))}
	}
	return nil
}

// rtIface presents a runtime as a sched.Interface, for the tables that
// drive every scheduler through that shape. The now arguments are
// ignored: the runtime reads its own clock, and stamps each packet's
// Arrival from it.
type rtIface struct{ *rt.Runtime }

func (a rtIface) Enqueue(_ float64, p *sched.Packet) error { return a.Runtime.Enqueue(p) }
func (a rtIface) Dequeue(float64) (*sched.Packet, bool)    { return a.Runtime.Dequeue() }

// simScheduleDigest renders the dequeue stream of a simulator trace in
// the "d flow seq len now vs vf" form of flowReplayDigest.
func simScheduleDigest(tr *Trace) string {
	var b strings.Builder
	for _, st := range tr.Deq {
		fmt.Fprintf(&b, "d %d %d %.9g %.9g %.9g %.9g\n",
			st.P.Flow, st.P.Seq, st.P.Length, st.Now, st.P.VirtualStart, st.P.VirtualFinish)
	}
	return b.String()
}

// replayOp is one step of the merged operation timeline.
type replayOp struct {
	st   Stamp
	kind int // 0 enqueue, 1 dequeue, 2 idle (failed dequeue)
}

// mergeOps flattens a trace's three streams back into the simulator's
// exact call order using the shared op counter. The idle stamps matter:
// the self-clocked disciplines reset their virtual time on the empty
// dequeue that ends a busy period (SFQ sets v to the max finish tag), so
// a replay that skips them diverges on the next busy period's tags.
func mergeOps(tr *Trace) []replayOp {
	ops := make([]replayOp, 0, len(tr.Enq)+len(tr.Deq)+len(tr.Idle))
	for _, st := range tr.Enq {
		ops = append(ops, replayOp{st: st, kind: 0})
	}
	for _, st := range tr.Deq {
		ops = append(ops, replayOp{st: st, kind: 1})
	}
	for _, st := range tr.Idle {
		ops = append(ops, replayOp{st: st, kind: 2})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].st.Op < ops[j].st.Op })
	return ops
}

// replayThroughRuntime replays the recorded operation timeline through a
// single-shard runtime: the manual clock is moved to each stamp's time
// and the same packets are offered/popped in the same op order —
// including the failed dequeues at busy-period boundaries. It returns
// the runtime's schedule in simScheduleDigest form.
func replayThroughRuntime(t *testing.T, sutName string, w Workload, tr *Trace) string {
	t.Helper()
	name := sutRegistryName(sutName)
	clock := &sched.ManualClock{}
	opts := append(rtOptions(name, w), sched.WithClock(clock))
	r, err := rt.New(name, opts...)
	if err != nil {
		t.Fatalf("rt.New(%q): %v", name, err)
	}
	for _, f := range w.Flows {
		if err := r.AddFlow(f.Flow, f.Weight); err != nil {
			t.Fatalf("AddFlow(%d): %v", f.Flow, err)
		}
	}
	var b strings.Builder
	for _, op := range mergeOps(tr) {
		st := op.st
		clock.Set(st.Now)
		switch op.kind {
		case 0:
			p := &sched.Packet{
				Flow:   st.P.Flow,
				Seq:    st.P.Seq,
				Length: st.P.Length,
				Rate:   st.P.Rate,
				Slack:  st.P.Slack,
			}
			if err := r.Enqueue(p); err != nil {
				t.Fatalf("runtime enqueue flow %d seq %d: %v", p.Flow, p.Seq, err)
			}
		case 1:
			p, ok := r.DequeueShard(0)
			if !ok {
				t.Fatalf("runtime ran dry at op %d (flow %d seq %d expected)", st.Op, st.P.Flow, st.P.Seq)
			}
			fmt.Fprintf(&b, "d %d %d %.9g %.9g %.9g %.9g\n",
				p.Flow, p.Seq, p.Length, st.Now, p.VirtualStart, p.VirtualFinish)
		case 2:
			if p, ok := r.DequeueShard(0); ok {
				t.Fatalf("runtime not idle at op %d: popped flow %d seq %d", st.Op, p.Flow, p.Seq)
			}
		}
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("runtime still holds %d packets after replay", n)
	}
	return b.String()
}

// TestRuntimeScheduleDigest proves the single-shard runtime emits the
// simulator's schedule bit for bit, for every sut, over healthy and wide
// workloads.
func TestRuntimeScheduleDigest(t *testing.T) {
	healthy, wide := int64(8), int64(3)
	if testing.Short() {
		healthy, wide = 2, 1
	}
	for _, s := range suts() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < healthy+wide; seed++ {
				rng := rand.New(rand.NewSource(seed))
				kind := s.kinds[int(seed)%len(s.kinds)]
				var w Workload
				if seed < healthy {
					w = Random(rng, kind, pktsPerFlow)
				} else {
					w = RandomWide(rng, kind, 6, 24+rng.Intn(17))
				}
				tr, _, err := Run(s.make(w), w, nil)
				if err != nil {
					t.Fatalf("seed %d: sim drive: %v", seed, err)
				}
				want := simScheduleDigest(tr)
				got := replayThroughRuntime(t, s.name, w, tr)
				if got != want {
					t.Fatalf("seed %d: runtime schedule diverged from simulator\nsim:\n%s\nruntime:\n%s", seed, want, got)
				}
			}
		})
	}
}

// TestRuntimeFacadeDigest covers the single-packet Enqueue/Dequeue path of
// the same guarantee, through a runtime presented as a sched.Interface
// (rtIface): its schedule matches the simulator's whatever now the caller
// passes.
func TestRuntimeFacadeDigest(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := Random(rng, allKinds[int(seed)%len(allKinds)], pktsPerFlow)
		tr, _, err := Run(sched.MustNew("sfq"), w, nil)
		if err != nil {
			t.Fatalf("seed %d: sim drive: %v", seed, err)
		}
		clock := &sched.ManualClock{}
		r, err := rt.New("sfq", sched.WithClock(clock), sched.WithShards(1))
		if err != nil {
			t.Fatalf("rt.New: %v", err)
		}
		fac := rtIface{r}
		for _, f := range w.Flows {
			if err := fac.AddFlow(f.Flow, f.Weight); err != nil {
				t.Fatal(err)
			}
		}
		var got, want strings.Builder
		for _, op := range mergeOps(tr) {
			st := op.st
			clock.Set(st.Now)
			switch op.kind {
			case 0:
				p := &sched.Packet{Flow: st.P.Flow, Seq: st.P.Seq, Length: st.P.Length, Rate: st.P.Rate}
				// The now argument is deliberately wrong: the runtime
				// must read the clock, not trust the caller.
				if err := fac.Enqueue(-1, p); err != nil {
					t.Fatal(err)
				}
			case 1:
				p, ok := fac.Dequeue(-1)
				if !ok {
					t.Fatalf("facade ran dry at op %d", st.Op)
				}
				fmt.Fprintf(&got, "d %d %d %.9g %.9g %.9g\n", p.Flow, p.Seq, p.Length, p.VirtualStart, p.VirtualFinish)
				fmt.Fprintf(&want, "d %d %d %.9g %.9g %.9g\n", st.P.Flow, st.P.Seq, st.P.Length, st.P.VirtualStart, st.P.VirtualFinish)
			case 2:
				if _, ok := fac.Dequeue(-1); ok {
					t.Fatalf("facade not idle at op %d", st.Op)
				}
			}
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d: facade schedule diverged\nsim:\n%s\nfacade:\n%s", seed, want.String(), got.String())
		}
	}
}
