package pifo_test

import (
	"testing"

	"repro/internal/pifo"
	"repro/internal/sched"
)

// TestPIFOZeroAlloc pins the hot path: once a scheduler has seen its flows
// backlogged once (maps populated, chunks pooled, heap grown), a steady
// enqueue/dequeue cycle allocates nothing — required of every discipline
// run by sched.Ranked, the UPS ones written in this package included.
func TestPIFOZeroAlloc(t *testing.T) {
	mks := map[string]func() *sched.Ranked{
		"pifo-sfq":  func() *sched.Ranked { return sched.MustNewRanked(sched.RankSFQ(sched.TieFIFO), sched.Config{}) },
		"pifo-scfq": func() *sched.Ranked { return sched.MustNewRanked(sched.RankSCFQ(), sched.Config{}) },
		"pifo-wfq":  func() *sched.Ranked { return sched.MustNew("wfq", sched.WithAssumedCapacity(1e4)).(*sched.Ranked) },
		"lstf":      func() *sched.Ranked { return sched.MustNewRanked(pifo.LSTF(), sched.Config{}) },
		"srpt":      func() *sched.Ranked { return sched.MustNewRanked(pifo.SRPT(), sched.Config{}) },
		"fifo+":     func() *sched.Ranked { return sched.MustNewRanked(pifo.FIFOPlus(), sched.Config{}) },
	}
	const nflows = 64
	for name, mk := range mks {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			s := mk()
			pkts := make([]sched.Packet, nflows)
			for f := 0; f < nflows; f++ {
				if err := s.AddFlow(f, float64(100+f)); err != nil {
					t.Fatal(err)
				}
				pkts[f] = sched.Packet{Flow: f, Length: 1000}
			}
			now := 0.0
			// Warm up: one full backlog-and-drain cycle sizes every map,
			// chunk, and heap slot.
			for f := 0; f < nflows; f++ {
				now += 1e-6
				if err := s.Enqueue(now, &pkts[f]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < nflows; i++ {
				now += 1e-6
				s.Dequeue(now)
			}
			f := 0
			allocs := testing.AllocsPerRun(2000, func() {
				now += 1e-6
				p := &pkts[f]
				p.Seq++
				if err := s.Enqueue(now, p); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.Dequeue(now); !ok {
					t.Fatal("empty dequeue in steady state")
				}
				f = (f + 1) % nflows
			})
			if allocs != 0 {
				t.Errorf("%s steady state allocates %v per op, want 0", name, allocs)
			}
		})
	}
}
