//go:build schedassert

package sim_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// mustPanic runs fn and returns its panic message, failing if there is none.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if p := recover(); p != nil {
				msg, _ = p.(string)
			}
		}()
		fn()
		t.Fatal("no panic")
	}()
	return msg
}

// TestReleasedFramePoisoned: a frame that ended at a sink on its pool's own
// queue reads Flow −1 and Bytes NaN until the pool hands it out again,
// zeroed; ending it twice panics.
func TestReleasedFramePoisoned(t *testing.T) {
	q := &eventq.Queue{}
	pool := sim.NewFramePool(q)
	sink := sim.NewSink(q)
	f := pool.Get()
	f.Flow, f.Bytes = 3, 100
	sink.Deliver(f)
	if f.Flow != -1 || !math.IsNaN(f.Bytes) {
		t.Errorf("released frame reads flow %d bytes %v, want -1 and NaN", f.Flow, f.Bytes)
	}
	if msg := mustPanic(t, func() { sink.Deliver(f) }); !strings.Contains(msg, "released twice") {
		t.Errorf("double release panicked with %q", msg)
	}
	if g := pool.Get(); g != f || g.Flow != 0 || g.Bytes != 0 {
		t.Errorf("reused frame %p (want %p) reads flow %d bytes %v, want zero", g, f, g.Flow, g.Bytes)
	}
}

// TestRedeliveredFrameCaught is the mutant a kept frame makes: a consumer
// hands a frame on after the sink took it. The sink has returned it to its
// source's pool, so the next link refuses it instead of queueing a frame
// the source is about to reuse.
func TestRedeliveredFrameCaught(t *testing.T) {
	q := &eventq.Queue{}
	sch := sched.MustNew("fifo")
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	next := sim.NewLink(q, "next", sch, server.NewConstantRate(1000), sim.NewSink(q))
	sink := sim.NewSink(q)
	keeper := sim.ConsumerFunc(func(f *sim.Frame) {
		sink.Deliver(f)
		next.Deliver(f) // the mutant: f ended at the sink
	})
	pool := sim.NewFramePool(q)
	f := pool.Get()
	f.Flow, f.Bytes = 1, 100
	if msg := mustPanic(t, func() { keeper.Deliver(f) }); !strings.Contains(msg, "delivered after its release") {
		t.Errorf("re-delivery panicked with %q", msg)
	}
}
