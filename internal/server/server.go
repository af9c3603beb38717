// Package server models the service capacity of an output link. The SFQ
// paper analyzes schedulers over servers whose rate fluctuates within
// bounds: Fluctuation Constrained (FC) servers (Definition 1) and
// Exponentially Bounded Fluctuation (EBF) servers (Definition 2), both
// from Lee [15]. This package provides concrete capacity processes that
// satisfy those definitions, plus the constant-rate process (an FC server
// with δ = 0).
//
// A Process answers one question: if a transmission of n bytes starts at
// time t during a busy period, when does it finish? Equivalently it
// defines the cumulative work function W(t1, t2) used by the definitions.
package server

import (
	"math"
	"math/rand"
)

// Never is the finish time of a transmission that can never complete: the
// capacity process has permanently stalled (its rate is zero from the
// start time onward). Consumers of a Process must treat a Never result as
// "the server is dead", not as a schedulable time.
var Never = math.Inf(1)

// Process models the service capacity of a link.
type Process interface {
	// Finish returns the completion time of a transmission of `bytes`
	// bytes started at time t. Calls are made with non-decreasing t
	// (transmissions do not overlap). A process whose rate is zero from t
	// onward returns Never: the transmission stalls forever.
	Finish(t, bytes float64) float64

	// MeanRate returns the long-run average service rate C (bytes/s).
	MeanRate() float64
}

// FCParams describes a Fluctuation Constrained server (C, δ(C)):
// W(t1,t2) >= C(t2-t1) - δ for every interval of a busy period (eq 6).
type FCParams struct {
	C     float64 // average rate, bytes/s
	Delta float64 // burstiness δ(C), bytes
}

// FCBound returns the Definition-1 lower bound on work done in an interval
// of length dt.
func (p FCParams) FCBound(dt float64) float64 { return p.C*dt - p.Delta }

// EBFParams describes an Exponentially Bounded Fluctuation server
// (C, B, α, δ(C)): P(W(t1,t2) < C(t2-t1) - δ - γ) <= B e^{-αγ} (eq 7).
type EBFParams struct {
	C     float64 // average rate, bytes/s
	B     float64 // prefactor
	Alpha float64 // exponent, 1/bytes
	Delta float64 // burstiness δ(C), bytes
}

// TailBound returns the Definition-2 bound B e^{-αγ}.
func (p EBFParams) TailBound(gamma float64) float64 {
	return p.B * math.Exp(-p.Alpha*gamma)
}

// ConstantRate is a fixed-capacity server: an FC server with δ = 0.
type ConstantRate struct{ C float64 }

// NewConstantRate returns a constant-rate process of c bytes/s.
func NewConstantRate(c float64) *ConstantRate {
	if c <= 0 {
		panic("server: rate must be positive")
	}
	return &ConstantRate{C: c}
}

// Finish returns t + bytes/C.
func (s *ConstantRate) Finish(t, bytes float64) float64 { return t + bytes/s.C }

// MeanRate returns C.
func (s *ConstantRate) MeanRate() float64 { return s.C }

// FC returns the FC parameters (C, 0).
func (s *ConstantRate) FC() FCParams { return FCParams{C: s.C, Delta: 0} }

// Piecewise serves at rate Rates[i] during [Times[i], Times[i+1]); the last
// rate extends forever. It reproduces scripted scenarios such as
// Example 2's server (1 pkt/s in [0,1), C pkt/s afterwards). Zero- and
// negative-rate segments are stalls: no work is done during them, and a
// transmission that reaches a terminal stall finishes Never.
type Piecewise struct {
	Times []float64 // segment start times, ascending, Times[0] == 0
	Rates []float64 // bytes/s, same length
}

// NewPiecewise builds a piecewise-constant rate process.
func NewPiecewise(times, rates []float64) *Piecewise {
	if len(times) == 0 || len(times) != len(rates) || times[0] != 0 {
		panic("server: piecewise needs matching segments starting at 0")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			panic("server: piecewise times must ascend")
		}
	}
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			panic("server: piecewise rates must be finite")
		}
	}
	return &Piecewise{Times: times, Rates: rates}
}

// Finish integrates the rate function from t until `bytes` bytes are served.
func (s *Piecewise) Finish(t, bytes float64) float64 {
	i := 0
	for i+1 < len(s.Times) && s.Times[i+1] <= t {
		i++
	}
	now := t
	remaining := bytes
	for {
		rate := s.Rates[i]
		var segEnd float64
		if i+1 < len(s.Times) {
			segEnd = s.Times[i+1]
		} else {
			segEnd = math.Inf(1)
		}
		if rate > 0 {
			need := remaining / rate
			if now+need <= segEnd {
				return now + need
			}
			remaining -= (segEnd - now) * rate
		}
		if math.IsInf(segEnd, 1) {
			return Never // terminal stall: the transmission never completes
		}
		now = segEnd
		i++
	}
}

// MeanRate returns the time-average of the configured segments (the last
// segment dominates an infinite horizon, so its rate is returned).
func (s *Piecewise) MeanRate() float64 { return s.Rates[len(s.Rates)-1] }

// PeriodicOnOff alternates deterministically between rate 2C (for half a
// period) and 0 (for the other half), starting in the ON phase. Over any
// interval of a busy period it does at least C·dt − δ work with
// δ = C·Period, so it is an FC server with parameters (C, C·Period).
type PeriodicOnOff struct {
	C      float64 // mean rate, bytes/s
	Period float64 // seconds
}

// NewPeriodicOnOff returns the process described above.
func NewPeriodicOnOff(c, period float64) *PeriodicOnOff {
	if c <= 0 || period <= 0 {
		panic("server: invalid on-off parameters")
	}
	return &PeriodicOnOff{C: c, Period: period}
}

// Finish integrates the on-off rate from t. The loop advances over whole
// periods by index, so floating-point boundary rounding cannot stall it.
func (s *PeriodicOnOff) Finish(t, bytes float64) float64 {
	k := math.Floor(t / s.Period)
	now := t
	remaining := bytes
	for {
		onEnd := k*s.Period + s.Period/2
		if now < onEnd {
			can := (onEnd - now) * 2 * s.C
			if remaining <= can {
				return now + remaining/(2*s.C)
			}
			remaining -= can
		}
		k++
		now = k * s.Period
	}
}

// MeanRate returns C.
func (s *PeriodicOnOff) MeanRate() float64 { return s.C }

// FC returns the FC parameters (C, C·Period).
func (s *PeriodicOnOff) FC() FCParams { return FCParams{C: s.C, Delta: s.C * s.Period} }

// RandomSlotted serves each slot of SlotDur seconds at an i.i.d. rate drawn
// uniformly from [0, 2C]. It is an EBF server at any declared rate
// strictly below its mean C: with per-slot work X ∈ [0, 2m] (m = C·SlotDur,
// E[X] = m) and declared rate 0.9·C, a Chernoff argument with s = 0.1/m
// gives E[e^{−s(X−0.9m)}] <= e^{s²m²/2 − 0.1·s·m} < 1, so for every window
// P(W < 0.9C·dt − δ − γ) <= e^{−sγ} uniformly in dt. (No uniform
// exponential bound can hold at the mean rate itself — deviations grow as
// √dt — which is why Definition 2 processes carry a rate margin.) The
// closed form is verified empirically in the tests.
type RandomSlotted struct {
	C       float64
	SlotDur float64
	rng     *rand.Rand

	// lazily generated slot rates so Finish(t, ...) is deterministic for a
	// given seed regardless of call pattern granularity
	rates []float64
}

// NewRandomSlotted returns the process described above.
func NewRandomSlotted(c, slotDur float64, rng *rand.Rand) *RandomSlotted {
	if c <= 0 || slotDur <= 0 {
		panic("server: invalid slotted parameters")
	}
	if rng == nil {
		panic("server: RandomSlotted requires an explicit rng")
	}
	return &RandomSlotted{C: c, SlotDur: slotDur, rng: rng}
}

func (s *RandomSlotted) rateOfSlot(i int) float64 {
	for len(s.rates) <= i {
		s.rates = append(s.rates, s.rng.Float64()*2*s.C)
	}
	return s.rates[i]
}

// Finish integrates the slotted rates from t. The loop advances by slot
// index, so floating-point boundary rounding cannot stall it.
func (s *RandomSlotted) Finish(t, bytes float64) float64 {
	slot := int(t / s.SlotDur)
	now := t
	remaining := bytes
	for {
		segEnd := float64(slot+1) * s.SlotDur
		rate := s.rateOfSlot(slot)
		if rate > 0 && segEnd > now {
			can := (segEnd - now) * rate
			if remaining <= can {
				return now + remaining/rate
			}
			remaining -= can
		}
		slot++
		now = segEnd
	}
}

// MeanRate returns C.
func (s *RandomSlotted) MeanRate() float64 { return s.C }

// EBF returns conservative EBF parameters for this process: declared rate
// 0.9·C, α = 0.1/(C·SlotDur), and δ = 4·C·SlotDur (two boundary slots of
// headroom at the peak rate).
func (s *RandomSlotted) EBF() EBFParams {
	m := s.C * s.SlotDur
	return EBFParams{C: 0.9 * s.C, B: 1, Alpha: 0.1 / m, Delta: 4 * m}
}

// MarkovModulated switches between a set of rates with exponentially
// distributed holding times — the variable-rate interface model used for
// the Fig 3(b) reproduction (a NIC whose realizable bandwidth varies with
// available CPU capacity).
type MarkovModulated struct {
	Rates    []float64 // bytes/s per state
	MeanHold float64   // seconds
	rng      *rand.Rand

	state    int
	switchAt float64 // time of the next state switch
}

// NewMarkovModulated returns the process described above, starting in
// state 0.
func NewMarkovModulated(rates []float64, meanHold float64, rng *rand.Rand) *MarkovModulated {
	if len(rates) == 0 || meanHold <= 0 {
		panic("server: invalid Markov parameters")
	}
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			panic("server: Markov rates must be finite")
		}
	}
	if rng == nil {
		panic("server: MarkovModulated requires an explicit rng")
	}
	return &MarkovModulated{Rates: rates, MeanHold: meanHold, rng: rng}
}

// Finish integrates the modulated rate from t. Calls must have
// non-decreasing t. Zero/negative-rate states are stalls; if no state has
// a positive rate the transmission can never complete and Finish returns
// Never.
func (s *MarkovModulated) Finish(t, bytes float64) float64 {
	canServe := false
	for _, r := range s.Rates {
		if r > 0 {
			canServe = true
			break
		}
	}
	if !canServe {
		return Never
	}
	now := t
	remaining := bytes
	for s.switchAt <= now {
		s.advanceState()
	}
	for {
		rate := s.Rates[s.state]
		if rate > 0 {
			can := (s.switchAt - now) * rate
			if remaining <= can {
				return now + remaining/rate
			}
			remaining -= can
		}
		now = s.switchAt
		s.advanceState()
	}
}

func (s *MarkovModulated) advanceState() {
	s.state = s.rng.Intn(len(s.Rates))
	s.switchAt += s.rng.ExpFloat64() * s.MeanHold
}

// MeanRate returns the average of the state rates (states are uniform).
func (s *MarkovModulated) MeanRate() float64 {
	sum := 0.0
	for _, r := range s.Rates {
		sum += r
	}
	return sum / float64(len(s.Rates))
}
