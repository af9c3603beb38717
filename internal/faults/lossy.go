package faults

import (
	"math/rand"

	"repro/internal/sim"
)

// Lossy is a consumer shim that randomly loses or corrupts frames on their
// way to the downstream consumer. Corrupted frames are discarded at the
// first checksum verification — i.e. here — under their own cause, so a
// run's losses split cleanly into "never arrived" and "arrived broken".
//
// Exactly one rng draw is consumed per frame regardless of outcome, so a
// seeded run's loss pattern is a pure function of the frame sequence:
// deterministic replay holds even when probabilities are zero.
type Lossy struct {
	// PLoss and PCorrupt are per-frame probabilities; their sum must not
	// exceed 1.
	PLoss    float64
	PCorrupt float64

	// OnDrop observes every injected drop (may be nil).
	OnDrop func(f *sim.Frame, cause sim.DropCause)

	rng  *rand.Rand
	next sim.Consumer

	delivered  int64
	drops      int64
	dropsCause map[sim.DropCause]int64
	dropsFlow  map[int]int64
}

// NewLossy returns a lossy shim wired in front of next.
func NewLossy(rng *rand.Rand, next sim.Consumer, pLoss, pCorrupt float64) *Lossy {
	if next == nil {
		panic("faults: NewLossy requires a downstream consumer")
	}
	if rng == nil {
		panic("faults: NewLossy requires an rng")
	}
	if pLoss < 0 || pCorrupt < 0 || pLoss+pCorrupt > 1 {
		panic("faults: loss and corruption probabilities must be in [0,1] and sum to at most 1")
	}
	return &Lossy{
		PLoss: pLoss, PCorrupt: pCorrupt,
		rng:        rng,
		next:       next,
		dropsCause: make(map[sim.DropCause]int64),
		dropsFlow:  make(map[int]int64),
	}
}

// Deliver passes f downstream, loses it, or corrupts it.
func (l *Lossy) Deliver(f *sim.Frame) {
	u := l.rng.Float64() // exactly one draw per frame
	switch {
	case u < l.PLoss:
		l.drop(f, DropRandomLoss)
	case u < l.PLoss+l.PCorrupt:
		l.drop(f, DropCorrupt)
	default:
		l.delivered++
		l.next.Deliver(f)
	}
}

func (l *Lossy) drop(f *sim.Frame, cause sim.DropCause) {
	l.drops++
	l.dropsCause[cause]++
	l.dropsFlow[f.Flow]++
	if l.OnDrop != nil {
		l.OnDrop(f, cause)
	}
}

// DropsByFlow returns the injected drops charged to one flow.
func (l *Lossy) DropsByFlow(flow int) int64 { return l.dropsFlow[flow] }

// DropsByCause returns a copy of the per-cause counters.
func (l *Lossy) DropsByCause() map[sim.DropCause]int64 {
	out := make(map[sim.DropCause]int64, len(l.dropsCause))
	for c, n := range l.dropsCause {
		out[c] = n
	}
	return out
}
