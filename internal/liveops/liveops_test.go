package liveops_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/liveops"
	"repro/internal/sched"

	_ "repro/internal/core" // register sfq/hsfq
	_ "repro/internal/pifo" // register pifo-*/lstf/srpt/fifo+
)

// drive pushes a small deterministic 3-flow workload through s: n
// operations alternating bursts of enqueues with dequeues, leaving a
// backlog behind. Packet lengths and gaps vary per flow so tags differ.
func drive(t *testing.T, s sched.Interface, n int) {
	t.Helper()
	for f := 1; f <= 3; f++ {
		if err := s.AddFlow(f, float64(f)*100); err != nil {
			t.Fatalf("AddFlow(%d): %v", f, err)
		}
	}
	now := 0.0
	seq := make(map[int]int64)
	for i := 0; i < n; i++ {
		now += 0.001 * float64(i%7+1)
		f := i%3 + 1
		if i%4 == 3 {
			s.Dequeue(now)
			continue
		}
		seq[f]++
		p := &sched.Packet{Flow: f, Seq: seq[f], Length: float64(64 + (i*37)%1400), Arrival: now}
		if err := s.Enqueue(now, p); err != nil {
			t.Fatalf("Enqueue op %d: %v", i, err)
		}
	}
}

// popAll returns the full remaining service order as "flow/seq" strings.
func popAll(s sched.Interface) []string {
	var out []string
	now := 1e6
	for {
		p, ok := s.Dequeue(now)
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%d/%d/%g", p.Flow, p.Seq, p.Length))
	}
}

// mkNamed builds the named scheduler or fails the test.
func mkNamed(t *testing.T, name string, opts ...sched.Option) sched.Interface {
	t.Helper()
	s, err := sched.New(name, opts...)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return s
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, name := range []string{"scfq", "sfq", "vclock", "edd", "drr", "fifo", "fairairport", "pifo-scfq", "lstf", "srpt"} {
		t.Run(name, func(t *testing.T) {
			src := mkNamed(t, name)
			drive(t, src, 200)
			snap := src.(sched.Snapshotter)

			data, err := liveops.Snapshot(snap)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			restored, err := liveops.Clone(snap, func() sched.Interface { return mkNamed(t, name) })
			if err != nil {
				t.Fatalf("Clone: %v", err)
			}

			// Marshal → Restore → Marshal is a fixed point.
			again, err := liveops.Snapshot(restored.(sched.Snapshotter))
			if err != nil {
				t.Fatalf("re-Snapshot: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("snapshot not a fixed point:\n  %s\n  %s", data, again)
			}

			// The replica continues bit-identically.
			want, got := popAll(src), popAll(restored)
			if len(want) == 0 {
				t.Fatal("workload left no backlog; test is vacuous")
			}
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("continuation diverged:\n  want %v\n  got  %v", want, got)
			}
		})
	}
}

func TestRestoreRejects(t *testing.T) {
	src := sched.NewSCFQ()
	drive(t, src, 100)
	data, err := liveops.Snapshot(src)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("kind mismatch", func(t *testing.T) {
		if err := liveops.Restore(data, sched.NewVirtualClock()); !errors.Is(err, sched.ErrBadState) {
			t.Fatalf("want ErrBadState, got %v", err)
		}
	})
	t.Run("digest mismatch", func(t *testing.T) {
		bad := bytes.Replace(data, []byte(`"v":`), []byte(`"w":`), 1)
		if bytes.Equal(bad, data) {
			t.Fatal("mutation did not apply")
		}
		if err := liveops.Restore(bad, sched.NewSCFQ()); !errors.Is(err, sched.ErrBadState) {
			t.Fatalf("want ErrBadState, got %v", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		bad := bytes.Replace(data, []byte(`"version":1`), []byte(`"version":9`), 1)
		if err := liveops.Restore(bad, sched.NewSCFQ()); !errors.Is(err, sched.ErrBadState) {
			t.Fatalf("want ErrBadState, got %v", err)
		}
	})
	t.Run("non-empty target", func(t *testing.T) {
		busy := sched.NewSCFQ()
		drive(t, busy, 50)
		if err := liveops.Restore(data, busy); !errors.Is(err, sched.ErrBadState) {
			t.Fatalf("want ErrBadState, got %v", err)
		}
		registered := sched.NewSCFQ() // flows but no packets is not empty either
		if err := registered.AddFlow(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := liveops.Restore(data, registered); !errors.Is(err, sched.ErrBadState) {
			t.Fatalf("want ErrBadState, got %v", err)
		}
	})
	// SFQ's tie rule shapes the queued sub keys, so a state is not
	// interchangeable across rules: the rule is part of the kind, which a
	// registry name, its aliases and the option spelling share.
	t.Run("tie rule", func(t *testing.T) {
		low := sched.WithTieBreak(sched.TieLowWeightFirst)
		for _, tc := range []struct {
			from, to string
			toOpts   []sched.Option
			ok       bool
		}{
			{from: "sfq", to: "sfq-lowweight"},
			{from: "sfq-lowweight", to: "sfq"},
			{from: "sfq-lowweight", to: "pifo-sfq"},
			{from: "sfq-lowweight", to: "sfq", toOpts: []sched.Option{low}, ok: true},
			{from: "sfq", to: "pifo-sfq", ok: true},
			{from: "flowsfq", to: "sfq", ok: true},
		} {
			src := mkNamed(t, tc.from)
			drive(t, src, 100)
			data, err := liveops.Snapshot(src.(sched.Snapshotter))
			if err != nil {
				t.Fatal(err)
			}
			err = liveops.Restore(data, mkNamed(t, tc.to, tc.toOpts...).(sched.Snapshotter))
			if tc.ok && err != nil {
				t.Errorf("%s -> %s %d opts: %v", tc.from, tc.to, len(tc.toOpts), err)
			}
			if !tc.ok && !errors.Is(err, sched.ErrBadState) {
				t.Errorf("%s -> %s: want ErrBadState, got %v", tc.from, tc.to, err)
			}
		}
	})
}

func TestPayloadSidecar(t *testing.T) {
	src := sched.NewSCFQ()
	if err := src.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := &sched.Packet{Flow: 1, Seq: int64(i), Length: 100, Payload: fmt.Sprintf("frame-%d", i)}
		if err := src.Enqueue(0, p); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := liveops.Clone(src, func() sched.Interface { return sched.NewSCFQ() })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, ok := restored.Dequeue(1)
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if want := fmt.Sprintf("frame-%d", i); p.Payload != want {
			t.Fatalf("pop %d payload = %v, want %v", i, p.Payload, want)
		}
	}
}

func TestSwapperSnapshotRestoreTransparent(t *testing.T) {
	baseline := sched.NewSCFQ()
	drive(t, baseline, 200)
	want := popAll(baseline)

	for _, atOp := range []uint64{1, 17, 50, 149} {
		sw := liveops.NewSwapper(sched.NewSCFQ(), liveops.Action{
			AtOp: atOp,
			Do:   liveops.SnapshotRestore(func() sched.Interface { return sched.NewSCFQ() }),
		})
		drive(t, sw, 200)
		if sw.Err != nil {
			t.Fatalf("atOp=%d: action failed: %v", atOp, sw.Err)
		}
		if sw.Ops() <= atOp {
			t.Fatalf("atOp=%d: only %d ops counted; action never fired", atOp, sw.Ops())
		}
		if got := popAll(sw); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("atOp=%d: schedule diverged after failover:\n  want %v\n  got  %v", atOp, want, got)
		}
	}
}

func TestDrainFlow(t *testing.T) {
	s := sched.NewSCFQ()
	if err := s.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainFlow(1); err != nil {
		t.Fatalf("DrainFlow: %v", err)
	}
	if err := s.Enqueue(0.1, &sched.Packet{Flow: 1, Length: 100}); !errors.Is(err, sched.ErrFlowDraining) {
		t.Fatalf("enqueue on draining flow: want ErrFlowDraining, got %v", err)
	}
	if _, ok := s.Dequeue(1); !ok {
		t.Fatal("drain left the queued packet unserved")
	}
	// The backlog emptied: the flow is gone.
	if err := s.Enqueue(2, &sched.Packet{Flow: 1, Length: 100}); !errors.Is(err, sched.ErrUnknownFlow) {
		t.Fatalf("want ErrUnknownFlow after drain completes, got %v", err)
	}
}
