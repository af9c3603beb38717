// Package source provides the open-loop traffic generators the
// experiments use: constant bit rate, Poisson, exponential on-off, bulk
// (greedy) transfers, and a leaky-bucket shaper. The closed-loop TCP Reno
// source lives in internal/tcp and the VBR video source in internal/vbr.
//
// Every source pushes Frames into a sim.Consumer (normally a link) via the
// shared event queue and takes explicit start/stop times and, where
// stochastic, an explicit *rand.Rand, keeping runs reproducible.
package source

import (
	"math"
	"math/rand"

	"repro/internal/eventq"
	"repro/internal/sim"
)

// CBR emits fixed-size packets at a constant rate.
type CBR struct {
	Q        *eventq.Queue
	Out      sim.Consumer
	Flow     int
	Rate     float64 // bytes/s
	PktBytes float64
	Start    float64
	Stop     float64 // no packets are emitted at or after Stop

	seq int64
}

// Run schedules the source's packet emissions.
func (s *CBR) Run() {
	if s.Rate <= 0 || s.PktBytes <= 0 {
		panic("source: CBR needs positive rate and packet size")
	}
	if s.Start < s.Stop {
		s.Q.AtCall(s.Start, cbrEmit, s)
	}
}

// cbrEmit emits one packet and reschedules itself. A plain function taking
// the source as its event argument, so per-packet scheduling allocates no
// closure; the emission index is just seq, already on the struct.
func cbrEmit(arg any) {
	s := arg.(*CBR)
	now := s.Q.Now()
	s.seq++
	s.Out.Deliver(&sim.Frame{Flow: s.Flow, Seq: s.seq, Bytes: s.PktBytes, Created: now})
	// Emission times are computed from the index, not accumulated,
	// so floating-point drift cannot add or drop packets.
	next := s.Start + float64(s.seq)*(s.PktBytes/s.Rate)
	if next < s.Stop {
		s.Q.AtCall(next, cbrEmit, s)
	}
}

// Poisson emits fixed-size packets with exponential interarrival times so
// the long-run average rate is Rate bytes/s — the traffic model of the
// Fig 2(b) experiment.
type Poisson struct {
	Q        *eventq.Queue
	Out      sim.Consumer
	Flow     int
	Rate     float64 // average bytes/s
	PktBytes float64
	Start    float64
	Stop     float64
	Rng      *rand.Rand

	seq int64
}

// Run schedules the source's packet emissions.
func (s *Poisson) Run() {
	if s.Rate <= 0 || s.PktBytes <= 0 {
		panic("source: Poisson needs positive rate and packet size")
	}
	if s.Rng == nil {
		panic("source: Poisson requires an explicit rng")
	}
	s.scheduleNext(s.Start)
}

// poissonEmit emits one packet and draws the next interarrival. Like
// cbrEmit, a plain function taking the source as its event argument, so
// per-packet scheduling allocates no closure. The rng draw order is
// identical to the old closure form, keeping seeded runs reproducible.
func poissonEmit(arg any) {
	s := arg.(*Poisson)
	now := s.Q.Now()
	s.seq++
	s.Out.Deliver(&sim.Frame{Flow: s.Flow, Seq: s.seq, Bytes: s.PktBytes, Created: now})
	s.scheduleNext(now)
}

func (s *Poisson) scheduleNext(from float64) {
	next := from + s.Rng.ExpFloat64()*(s.PktBytes/s.Rate)
	if next < s.Stop {
		s.Q.AtCall(next, poissonEmit, s)
	}
}

// OnOff alternates exponential on and off periods; while on it emits CBR
// traffic at PeakRate. Mean rate = PeakRate · MeanOn/(MeanOn+MeanOff).
type OnOff struct {
	Q        *eventq.Queue
	Out      sim.Consumer
	Flow     int
	PeakRate float64 // bytes/s while on
	PktBytes float64
	MeanOn   float64 // seconds
	MeanOff  float64 // seconds
	Start    float64
	Stop     float64
	Rng      *rand.Rand

	seq   int64
	endOn float64 // end of the current on period (state for onOffBurst)
}

// Run schedules the source's packet emissions.
func (s *OnOff) Run() {
	if s.PeakRate <= 0 || s.PktBytes <= 0 || s.MeanOn <= 0 || s.MeanOff < 0 {
		panic("source: invalid OnOff parameters")
	}
	if s.Rng == nil {
		panic("source: OnOff requires an explicit rng")
	}
	if s.Start < s.Stop {
		s.Q.AtCall(s.Start, onOffStart, s)
	}
}

// onOffStart begins an on period: it draws its length, then bursts.
func onOffStart(arg any) {
	s := arg.(*OnOff)
	s.endOn = s.Q.Now() + s.Rng.ExpFloat64()*s.MeanOn
	onOffBurst(arg)
}

// onOffBurst emits one packet of the current on period and reschedules
// itself; past the period's end it draws the off interval and schedules the
// next onOffStart. Carrying endOn on the struct (instead of in a captured
// variable) keeps per-packet scheduling closure-free.
func onOffBurst(arg any) {
	s := arg.(*OnOff)
	now := s.Q.Now()
	if now >= s.Stop {
		return
	}
	if now >= s.endOn {
		// Off period, then back on.
		next := now + s.Rng.ExpFloat64()*s.MeanOff
		if next < s.Stop {
			s.Q.AtCall(next, onOffStart, s)
		}
		return
	}
	s.seq++
	s.Out.Deliver(&sim.Frame{Flow: s.Flow, Seq: s.seq, Bytes: s.PktBytes, Created: now})
	s.Q.AtCall(now+s.PktBytes/s.PeakRate, onOffBurst, s)
}

// Bulk models a greedy transfer with a byte budget: it keeps Window bytes
// outstanding at the bottleneck link (refilled on departure), terminating
// after Budget bytes — the "connection transmits N packets then
// terminates" workload of the Fig 3 experiment. Attach must be called
// before the link transmits (it chains the link's OnDepart hook).
type Bulk struct {
	Q        *eventq.Queue
	Link     *sim.Link
	Flow     int
	PktBytes float64
	Budget   float64 // total bytes to send
	Window   float64 // bytes kept outstanding (>= PktBytes)
	Start    float64

	sent     float64
	inflight float64
	seq      int64
	attached bool
}

// Run installs the departure hook and schedules the initial window.
func (s *Bulk) Run() {
	if s.PktBytes <= 0 || s.Budget <= 0 || s.Window < s.PktBytes {
		panic("source: invalid Bulk parameters")
	}
	if !s.attached {
		s.attached = true
		prev := s.Link.OnDepart
		s.Link.OnDepart = func(f *sim.Frame, start, end float64) {
			if prev != nil {
				prev(f, start, end)
			}
			if f.Flow == s.Flow {
				s.inflight -= f.Bytes
				s.fill()
			}
		}
	}
	s.Q.AtCall(s.Start, bulkFill, s)
}

func bulkFill(arg any) { arg.(*Bulk).fill() }

func (s *Bulk) fill() {
	now := s.Q.Now()
	for s.sent < s.Budget && s.inflight+s.PktBytes <= s.Window {
		s.seq++
		s.sent += s.PktBytes
		s.inflight += s.PktBytes
		s.Link.Deliver(&sim.Frame{Flow: s.Flow, Seq: s.seq, Bytes: s.PktBytes, Created: now})
	}
}

// LeakyBucket shapes a frame stream to conform to (σ, ρ): a frame passes
// when the bucket holds enough tokens, otherwise it is delayed. Used to
// shape high-priority traffic so the residual capacity is fluctuation
// constrained with parameters (C−ρ, σ) (Section 2.3).
type LeakyBucket struct {
	Q     *eventq.Queue
	Out   sim.Consumer
	Sigma float64 // bucket depth, bytes
	Rho   float64 // token rate, bytes/s

	tokens   float64
	lastFill float64
	backlog  []*sim.Frame
	waiting  bool
}

// NewLeakyBucket returns a shaper that forwards conforming frames to out.
func NewLeakyBucket(q *eventq.Queue, out sim.Consumer, sigma, rho float64) *LeakyBucket {
	if sigma <= 0 || rho <= 0 {
		panic("source: invalid leaky bucket parameters")
	}
	return &LeakyBucket{Q: q, Out: out, Sigma: sigma, Rho: rho, tokens: sigma}
}

// Deliver accepts a frame from upstream.
func (b *LeakyBucket) Deliver(f *sim.Frame) {
	b.backlog = append(b.backlog, f)
	b.drain()
}

func (b *LeakyBucket) refill() {
	now := b.Q.Now()
	b.tokens += (now - b.lastFill) * b.Rho
	if b.tokens > b.Sigma {
		b.tokens = b.Sigma
	}
	b.lastFill = now
}

// leakyBucketTimer fires when the head-of-line deficit has been earned.
func leakyBucketTimer(arg any) {
	b := arg.(*LeakyBucket)
	b.waiting = false
	b.drain()
}

func (b *LeakyBucket) drain() {
	b.refill()
	for len(b.backlog) > 0 {
		f := b.backlog[0]
		// The relative slack makes the head packet conforming once the
		// deficit is within rounding error of zero; without it the
		// tokens += wait·ρ increment can be absorbed by floating-point
		// rounding and the timer would rearm forever.
		need := f.Bytes - b.tokens
		if need > 1e-9*f.Bytes {
			if !b.waiting {
				b.waiting = true
				b.Q.AfterCall(need/b.Rho, leakyBucketTimer, b)
			}
			return
		}
		b.tokens -= math.Min(f.Bytes, b.tokens)
		b.backlog = b.backlog[1:]
		b.Out.Deliver(f)
	}
}
