package obs_test

import (
	"testing"

	"repro/internal/obs"
)

// times returns the Time of every held event, oldest first.
func times(r *obs.TraceRing) []float64 {
	var ts []float64
	r.Do(func(e obs.Event) { ts = append(ts, e.Time) })
	return ts
}

func TestRingFillAndWrap(t *testing.T) {
	r := obs.NewTraceRing(4)
	if r.Len() != 0 {
		t.Fatalf("fresh ring: len %d", r.Len())
	}
	for i := 1; i <= 3; i++ {
		r.Push(obs.Event{Time: float64(i)})
	}
	if got := times(r); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("partial fill: %v", got)
	}
	if r.Overwritten() != 0 {
		t.Fatalf("overwritten before wrap: %d", r.Overwritten())
	}
	for i := 4; i <= 10; i++ {
		r.Push(obs.Event{Time: float64(i)})
	}
	if got := times(r); len(got) != 4 || got[0] != 7 || got[3] != 10 {
		t.Fatalf("after wrap: %v", got)
	}
	if r.Overwritten() != 6 {
		t.Fatalf("overwritten = %d, want 6", r.Overwritten())
	}
	if r.At(1).Time != 8 {
		t.Fatalf("At(1) = %v, want 8", r.At(1).Time)
	}
	r.Reset()
	if r.Len() != 0 || r.Overwritten() != 0 {
		t.Fatalf("reset: len %d overwritten %d", r.Len(), r.Overwritten())
	}
	r.Push(obs.Event{Time: 42})
	if r.At(0).Time != 42 {
		t.Fatalf("push after reset: %v", r.At(0).Time)
	}
}

func TestRingPushZeroAlloc(t *testing.T) {
	r := obs.NewTraceRing(128)
	i := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push(obs.Event{Time: i, Kind: obs.EvDepart, Flow: 1, Seq: int64(i), Bytes: 100})
		i++
	})
	if allocs != 0 {
		t.Fatalf("Push allocates %v per op, want 0", allocs)
	}
}

func TestRingBadIndexAndCapacityPanic(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("NewTraceRing(0)", func() { obs.NewTraceRing(0) })
	r := obs.NewTraceRing(2)
	r.Push(obs.Event{})
	mustPanic("At(1) of a one-event ring", func() { r.At(1) })
	mustPanic("At(-1)", func() { r.At(-1) })
}
