package rt_test

import (
	"errors"
	"testing"

	_ "repro/internal/core"
	"repro/internal/liveops"
	_ "repro/internal/pifo"
	"repro/internal/rt"
	"repro/internal/sched"
)

// noSnap narrows a scheduler to the bare Interface method set, hiding any
// Snapshotter implementation from type assertions.
type noSnap struct{ sched.Interface }

// TestErrorVocabulary pins the shared sentinel-error vocabulary across the
// scheduling stack: every contract-path failure in sched, pifo, liveops,
// and rt must be errors.Is-able against one of the sched sentinels, so
// callers branch on errors.Is instead of string matching. Each table entry
// provokes the sentinel through a real API call on the layer named in the
// case — if a layer swaps a sentinel or stops wrapping, this table is the
// tripwire.
func TestErrorVocabulary(t *testing.T) {
	newRT := func(t *testing.T) *rt.Runtime {
		return mustRuntime(t, "sfq", sched.WithClock(&sched.ManualClock{}))
	}
	cases := []struct {
		name    string
		want    error
		trigger func(t *testing.T) error
	}{
		{"rt/enqueue-unregistered/ErrUnknownFlow", sched.ErrUnknownFlow, func(t *testing.T) error {
			return newRT(t).Enqueue(&sched.Packet{Flow: 1, Length: 1})
		}},
		{"rt/remove-backlogged/ErrFlowBusy", sched.ErrFlowBusy, func(t *testing.T) error {
			r := newRT(t)
			if err := r.AddFlow(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := r.Enqueue(&sched.Packet{Flow: 1, Length: 1}); err != nil {
				t.Fatal(err)
			}
			return r.RemoveFlow(1)
		}},
		{"core/negative-weight/ErrBadWeight", sched.ErrBadWeight, func(t *testing.T) error {
			return newRT(t).AddFlow(1, -2)
		}},
		{"core/zero-length-packet/ErrBadPacket", sched.ErrBadPacket, func(t *testing.T) error {
			r := newRT(t)
			if err := r.AddFlow(1, 1); err != nil {
				t.Fatal(err)
			}
			return r.Enqueue(&sched.Packet{Flow: 1, Length: 0})
		}},
		{"core/clock-regression/ErrTimeWentBack", sched.ErrTimeWentBack, func(t *testing.T) error {
			// Only the bare discipline surfaces this: the runtime clamps
			// its clock monotone (TestRuntimeMonotoneClock).
			s := sched.MustNew("sfq")
			if err := s.AddFlow(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Enqueue(5, &sched.Packet{Flow: 1, Length: 1}); err != nil {
				t.Fatal(err)
			}
			return s.Enqueue(4, &sched.Packet{Flow: 1, Seq: 1, Length: 1})
		}},
		{"sched/unknown-name/ErrBadConfig", sched.ErrBadConfig, func(t *testing.T) error {
			_, err := sched.New("no-such-discipline")
			return err
		}},
		{"sched/shards-without-clock/ErrBadConfig", sched.ErrBadConfig, func(t *testing.T) error {
			_, err := sched.New("sfq", sched.WithShards(4))
			return err
		}},
		{"sched/clock/ErrBadConfig", sched.ErrBadConfig, func(t *testing.T) error {
			// A runtime is built by rt.New, linked into this binary: sched.New
			// still refuses a clock.
			_, err := sched.New("sfq", sched.WithClock(&sched.ManualClock{}))
			return err
		}},
		{"sched/wfq-without-capacity/ErrBadConfig", sched.ErrBadConfig, func(t *testing.T) error {
			_, err := sched.New("wfq")
			return err
		}},
		{"core/enqueue-while-draining/ErrFlowDraining", sched.ErrFlowDraining, func(t *testing.T) error {
			s := sched.MustNew("sfq")
			rc, ok := s.(sched.Reconfigurable)
			if !ok {
				t.Fatal("sfq is not Reconfigurable")
			}
			if err := s.AddFlow(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 1}); err != nil {
				t.Fatal(err)
			}
			if err := rc.DrainFlow(1); err != nil {
				t.Fatal(err)
			}
			return s.Enqueue(1, &sched.Packet{Flow: 1, Seq: 1, Length: 1})
		}},
		{"liveops/non-snapshotter/ErrBadState", sched.ErrBadState, func(t *testing.T) error {
			// Wrapping in a bare-Interface shim hides any Snapshotter
			// support; kill-and-restore must refuse it with the shared
			// sentinel rather than an ad-hoc string error.
			inner := noSnap{sched.MustNew("sfq")}
			_, err := liveops.SnapshotRestore(func() sched.Interface { return sched.MustNew("sfq") })(0, inner)
			return err
		}},
		{"rt/finish-unran-ticket/ErrBadState", sched.ErrBadState, func(t *testing.T) error {
			a, err := rt.NewAdmitter(rt.AdmitterConfig{Runtime: newRT(t), Limit: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Runtime().AddFlow(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := a.SetLimit(0); err != nil {
				t.Fatal(err)
			}
			tk, err := a.Submit(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			return tk.Finish()
		}},
		{"rt/bounded-queue/ErrShedding", sched.ErrShedding, func(t *testing.T) error {
			r := newRT(t)
			r.SetQueueLimit(1)
			if err := r.AddFlow(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := r.Enqueue(&sched.Packet{Flow: 1, Length: 1}); err != nil {
				t.Fatal(err)
			}
			return r.Enqueue(&sched.Packet{Flow: 1, Seq: 1, Length: 1})
		}},
		{"rt/use-after-close/ErrClosed", sched.ErrClosed, func(t *testing.T) error {
			r := newRT(t)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			return r.AddFlow(1, 1)
		}},
		{"core/self-clocked-capacity/ErrNoCapacityKnob", sched.ErrNoCapacityKnob, func(t *testing.T) error {
			rc, ok := sched.MustNew("sfq").(sched.Reconfigurable)
			if !ok {
				t.Fatal("sfq is not Reconfigurable")
			}
			return rc.SetCapacity(2)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.trigger(t)
			if err == nil {
				t.Fatal("trigger returned nil error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, not errors.Is-able against %v", err, tc.want)
			}
		})
	}
}

// TestPriorityTreeAcrossShards: each shard builds its own strict-priority
// tree from the name, so the runtime's Len counts what it accepted, each
// packet once. (A composition whose levels were instances passed in an
// option once shared them between shards and read Len 50 here.)
func TestPriorityTreeAcrossShards(t *testing.T) {
	r := mustRuntime(t, "hier:priority(fifo,scfq)", sched.WithClock(&sched.ManualClock{}), sched.WithShards(2))
	accepted := 0
	for f := 0; f < 8; f++ {
		if err := r.AddFlow(f, float64(1+f)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			if err := r.Enqueue(&sched.Packet{Flow: f, Seq: int64(k), Length: 100}); err != nil {
				t.Fatal(err)
			}
			accepted++
		}
	}
	if n := r.Len(); n != accepted {
		t.Errorf("Len = %d after %d accepted", n, accepted)
	}
	perShard := [2]int{}
	for f := 0; f < 8; f++ {
		perShard[r.ShardOf(f)]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Errorf("flows per shard %v: the check needs both shards in use", perShard)
	}
}
