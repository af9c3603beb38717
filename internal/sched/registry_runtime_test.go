package sched_test

import (
	"errors"
	"testing"

	_ "repro/internal/core" // registers the SFQ family
	"repro/internal/sched"
)

// TestRuntimeOptionsWithoutBuilder pins the construction matrix from the
// sched side, where internal/rt is not imported: a Config asking for a
// runtime (a clock, or sharding) must fail with ErrBadConfig instead of
// silently returning a bare simulator-driven instance. sched.New refuses
// them with rt linked in too (internal/rt's TestErrorVocabulary, row
// sched/clock); rt.New is the one way to build a runtime.
func TestRuntimeOptionsWithoutBuilder(t *testing.T) {
	cases := []struct {
		name string
		opts []sched.Option
	}{
		{"clock-without-runtime", []sched.Option{sched.WithClock(&sched.ManualClock{})}},
		{"shards-without-clock", []sched.Option{sched.WithShards(2)}},
		{"negative-shards", []sched.Option{sched.WithShards(-1)}},
		{"clock-and-shards-without-runtime", []sched.Option{sched.WithClock(&sched.ManualClock{}), sched.WithShards(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := sched.New("sfq", tc.opts...); !errors.Is(err, sched.ErrBadConfig) {
				t.Fatalf("New(sfq, %s) = %v, want ErrBadConfig", tc.name, err)
			}
		})
	}
	// Shards == 1 with no clock is the default and stays a bare instance.
	if _, err := sched.New("sfq", sched.WithShards(1)); err != nil {
		t.Fatalf("New(sfq, WithShards(1)) = %v, want bare instance", err)
	}
}

// TestManualClock pins the replay clock: Set may move backwards (callers
// like the runtime clamp per consumer), Advance accumulates.
func TestManualClock(t *testing.T) {
	var c sched.ManualClock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %v", c.Now())
	}
	c.Set(5)
	c.Advance(2.5)
	if c.Now() != 7.5 {
		t.Fatalf("after Set(5)+Advance(2.5): %v", c.Now())
	}
	c.Set(1)
	if c.Now() != 1 {
		t.Fatalf("Set must allow moving backwards, got %v", c.Now())
	}
}
