package sched

// Clock is the time source a scheduler driver reads "now" from, in the
// float64 seconds every Interface method speaks. The discrete-event
// simulator's eventq.Queue satisfies it directly (its Now() is the virtual
// clock), and internal/rt provides a monotonic wall clock, so the same
// discipline — constructed from the same registry name — can be driven by
// simulated or real time without knowing which (ROADMAP direction 1).
//
// Clocks must be monotone non-decreasing as observed by any single driver;
// drivers that share a clock across goroutines (the sharded runtime) clamp
// reads against the last value each scheduler saw, because the Interface
// contract rejects time regressions with ErrTimeWentBack.
type Clock interface {
	// Now returns the current time in seconds. The zero point is the
	// clock's own (simulation start, process start, ...); only differences
	// and ordering are meaningful.
	Now() float64
}

// ManualClock is a Clock whose time is set explicitly — the replay and
// conformance harnesses use it to drive a runtime-shaped component through
// a recorded simulator timeline, and tests use it to freeze time. The zero
// value reads 0. Not safe for concurrent use with writers; drivers that
// need concurrency guard it themselves.
type ManualClock struct {
	t float64
}

// Now returns the manually set time.
func (c *ManualClock) Now() float64 { return c.t }

// Set moves the clock to t. Moving backwards is allowed here (the driver's
// monotonic clamp is what protects the schedulers), so a harness can reuse
// one clock across runs.
func (c *ManualClock) Set(t float64) { c.t = t }

// Advance moves the clock forward by d seconds.
func (c *ManualClock) Advance(d float64) { c.t += d }
