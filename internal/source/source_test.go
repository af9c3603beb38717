package source_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
)

// collect gathers frames with their delivery times.
type collect struct {
	q     *eventq.Queue
	times []float64
	bytes float64
}

func (c *collect) Deliver(f *sim.Frame) {
	c.times = append(c.times, c.q.Now())
	c.bytes += f.Bytes
}

func TestCBRRateAndSpacing(t *testing.T) {
	q := &eventq.Queue{}
	c := &collect{q: q}
	s := &source.CBR{Q: q, Out: c, Flow: 1, Rate: 1000, PktBytes: 100, Start: 0, Stop: 1}
	s.Run()
	q.Run()
	if len(c.times) != 10 {
		t.Fatalf("packets = %d, want 10", len(c.times))
	}
	for i, tt := range c.times {
		if math.Abs(tt-float64(i)*0.1) > 1e-9 {
			t.Errorf("packet %d at %v, want %v", i, tt, float64(i)*0.1)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	q := &eventq.Queue{}
	c := &collect{q: q}
	s := &source.Poisson{Q: q, Out: c, Flow: 1, Rate: 1000, PktBytes: 100,
		Start: 0, Stop: 200, Rng: rand.New(rand.NewSource(1))}
	s.Run()
	q.Run()
	rate := c.bytes / 200
	if rate < 900 || rate > 1100 {
		t.Errorf("mean rate = %v, want ≈ 1000", rate)
	}
}

func TestOnOffMeanRate(t *testing.T) {
	q := &eventq.Queue{}
	c := &collect{q: q}
	s := &source.OnOff{Q: q, Out: c, Flow: 1, PeakRate: 2000, PktBytes: 100,
		MeanOn: 0.5, MeanOff: 0.5, Start: 0, Stop: 300, Rng: rand.New(rand.NewSource(2))}
	s.Run()
	q.Run()
	rate := c.bytes / 300
	if rate < 800 || rate > 1200 {
		t.Errorf("mean rate = %v, want ≈ 1000", rate)
	}
}

func TestBulkBudgetAndTermination(t *testing.T) {
	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	sch := sched.MustNew("fifo")
	if err := sch.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	link := sim.NewLink(q, "l", sch, server.NewConstantRate(1000), sink)
	b := &source.Bulk{Q: q, Link: link, Flow: 1, PktBytes: 100, Budget: 5000, Window: 300}
	b.Run()
	q.Run()
	if !b.Done() {
		t.Error("bulk should finish its budget")
	}
	if sink.Bytes(1) != 5000 {
		t.Errorf("delivered %v bytes, want 5000", sink.Bytes(1))
	}
	// Window-limited: the link is kept busy end-to-end.
	if got := q.Now(); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("finished at %v, want 5.0", got)
	}
}

func TestLeakyBucketConformance(t *testing.T) {
	q := &eventq.Queue{}
	c := &collect{q: q}
	lb := source.NewLeakyBucket(q, c, 200, 100) // σ=200 B, ρ=100 B/s
	// Burst of 10 × 100 B at t=0: 2 pass immediately, the rest at 1 s
	// intervals.
	q.At(0, func() {
		for i := 0; i < 10; i++ {
			lb.Deliver(&sim.Frame{Flow: 1, Bytes: 100})
		}
	})
	q.Run()
	if len(c.times) != 10 {
		t.Fatalf("frames = %d", len(c.times))
	}
	if c.times[0] != 0 || c.times[1] != 0 {
		t.Errorf("first two should pass at t=0: %v", c.times[:2])
	}
	for i := 2; i < 10; i++ {
		want := float64(i-1) * 1.0
		if math.Abs(c.times[i]-want) > 1e-9 {
			t.Errorf("frame %d at %v, want %v", i, c.times[i], want)
		}
	}
	// Conformance property: cumulative output <= σ + ρ·t at every output.
	cum := 0.0
	for _, tt := range c.times {
		cum += 100
		if cum > 200+100*tt+1e-9 {
			t.Errorf("output violates (σ,ρ) at t=%v: %v bytes", tt, cum)
		}
	}
}

func TestSourceValidation(t *testing.T) {
	q := &eventq.Queue{}
	c := &collect{q: q}
	for name, bad := range map[string]func(){
		"cbr":     func() { (&source.CBR{Q: q, Out: c, Rate: 0, PktBytes: 1, Stop: 1}).Run() },
		"poisson": func() { (&source.Poisson{Q: q, Out: c, Rate: 1, PktBytes: 1, Stop: 1}).Run() },
		"onoff": func() {
			(&source.OnOff{Q: q, Out: c, PeakRate: 1, PktBytes: 1, MeanOn: 0, Stop: 1, Rng: rand.New(rand.NewSource(1))}).Run()
		},
		"bucket": func() { source.NewLeakyBucket(q, c, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid config accepted", name)
				}
			}()
			bad()
		}()
	}
}

// TestSourceRefusesNonFinite: a rate, size or on-time that is not finite
// and positive, a negative or NaN off-time, a Start that is not finite and
// a NaN Stop are refused by Run with a panic naming the field. An +Inf rate
// used to emit at Start forever and a NaN one to schedule nothing, so a
// source that accepts a row is run for at most a bounded number of events:
// a regression fails instead of hanging.
func TestSourceRefusesNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	type mk func(q *eventq.Queue, out sim.Consumer) interface{ Run() }
	cbr := func(rate, pkt, start, stop float64) mk {
		return func(q *eventq.Queue, out sim.Consumer) interface{ Run() } {
			return &source.CBR{Q: q, Out: out, Rate: rate, PktBytes: pkt, Start: start, Stop: stop}
		}
	}
	poisson := func(rate, pkt, start, stop float64) mk {
		return func(q *eventq.Queue, out sim.Consumer) interface{ Run() } {
			return &source.Poisson{Q: q, Out: out, Rate: rate, PktBytes: pkt, Start: start, Stop: stop, Rng: rng()}
		}
	}
	onoff := func(peak, pkt, on, off, start, stop float64) mk {
		return func(q *eventq.Queue, out sim.Consumer) interface{ Run() } {
			return &source.OnOff{Q: q, Out: out, PeakRate: peak, PktBytes: pkt, MeanOn: on, MeanOff: off,
				Start: start, Stop: stop, Rng: rng()}
		}
	}
	for _, tc := range []struct {
		name, field string
		src         mk
	}{
		{"cbr/rate+inf", "Rate", cbr(inf, 100, 0, 1)},
		{"cbr/rate-nan", "Rate", cbr(nan, 100, 0, 1)},
		{"cbr/rate-neg", "Rate", cbr(-1, 100, 0, 1)},
		{"cbr/pkt+inf", "PktBytes", cbr(1000, inf, 0, 1)},
		{"cbr/pkt-nan", "PktBytes", cbr(1000, nan, 0, 1)},
		{"cbr/start-nan", "Start", cbr(1000, 100, nan, 1)},
		{"cbr/start-inf", "Start", cbr(1000, 100, math.Inf(-1), 1)},
		{"cbr/stop-nan", "Stop", cbr(1000, 100, 0, nan)},
		{"poisson/rate+inf", "Rate", poisson(inf, 100, 0, 1)},
		{"poisson/rate-nan", "Rate", poisson(nan, 100, 0, 1)},
		{"poisson/rate-zero", "Rate", poisson(0, 100, 0, 1)},
		{"poisson/pkt+inf", "PktBytes", poisson(1000, inf, 0, 1)},
		{"poisson/pkt-nan", "PktBytes", poisson(1000, nan, 0, 1)},
		{"poisson/start-nan", "Start", poisson(1000, 100, nan, 1)},
		{"poisson/stop-nan", "Stop", poisson(1000, 100, 0, nan)},
		{"onoff/peak+inf", "PeakRate", onoff(inf, 100, 0.1, 0.1, 0, 1)},
		{"onoff/peak-nan", "PeakRate", onoff(nan, 100, 0.1, 0.1, 0, 1)},
		{"onoff/pkt+inf", "PktBytes", onoff(1000, inf, 0.1, 0.1, 0, 1)},
		{"onoff/on+inf", "MeanOn", onoff(1000, 100, inf, 0.1, 0, 1)},
		{"onoff/on-nan", "MeanOn", onoff(1000, 100, nan, 0.1, 0, 1)},
		{"onoff/off-neg", "MeanOff", onoff(1000, 100, 0.1, -1, 0, 1)},
		{"onoff/off-nan", "MeanOff", onoff(1000, 100, 0.1, nan, 0, 1)},
		{"onoff/start-nan", "Start", onoff(1000, 100, 0.1, 0.1, nan, 1)},
		{"onoff/stop-nan", "Stop", onoff(1000, 100, 0.1, 0.1, 0, nan)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &eventq.Queue{}
			c := &collect{q: q}
			msg := func() (msg string) {
				defer func() {
					if p := recover(); p != nil {
						msg = fmt.Sprint(p)
					}
				}()
				tc.src(q, c).Run()
				return ""
			}()
			if msg == "" {
				steps := 0
				for steps < 10000 && q.Step() {
					steps++
				}
				t.Fatalf("accepted: %d events, %d frames, clock at %v", steps, len(c.times), q.Now())
			}
			if !strings.Contains(msg, tc.field) {
				t.Errorf("panic %q does not name %s", msg, tc.field)
			}
		})
	}
}

// TestFramesReusedAtOwnSink: a sink on the source's queue hands each frame
// back to the source, so a long run goes through a handful of frames; a
// sink on another queue keeps none, and a frame made by hand is never
// pooled.
func TestFramesReusedAtOwnSink(t *testing.T) {
	run := func(sinkQ func(q *eventq.Queue) *eventq.Queue) (frames int64, distinct int) {
		q := &eventq.Queue{}
		sink := sim.NewSink(sinkQ(q))
		seen := map[*sim.Frame]bool{}
		sink.OnReceive = func(f *sim.Frame, _ float64) { seen[f] = true }
		sch := sched.MustNew("fifo")
		if err := sch.AddFlow(1, 1); err != nil {
			t.Fatal(err)
		}
		link := sim.NewLink(q, "l", sch, server.NewConstantRate(1e4), sink)
		(&source.Poisson{Q: q, Out: link, Flow: 1, Rate: 5e3, PktBytes: 100, Stop: 20,
			Rng: rand.New(rand.NewSource(3))}).Run()
		q.Run()
		return sink.Count(1), len(seen)
	}
	n, distinct := run(func(q *eventq.Queue) *eventq.Queue { return q })
	if n < 500 || distinct > 20 {
		t.Errorf("own-queue sink: %d frames through %d distinct, want reuse", n, distinct)
	}
	n, distinct = run(func(*eventq.Queue) *eventq.Queue { return &eventq.Queue{} })
	if int64(distinct) != n {
		t.Errorf("other-queue sink: %d frames through %d distinct, want none reused", n, distinct)
	}

	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	f := &sim.Frame{Flow: 7, Bytes: 10}
	sink.Deliver(f)
	if f.Flow != 7 || f.Bytes != 10 {
		t.Errorf("a frame from no pool was touched at its sink: %+v", *f)
	}
}
