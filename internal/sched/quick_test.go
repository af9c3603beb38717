package sched_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
)

// quickCfg keeps property-test sizes uniform across this file.
var quickCfg = &quick.Config{MaxCount: 60}

// TestQuickTagHeapSortsByKey: popping a TagHeap yields keys in
// non-decreasing order with FIFO among equal keys.
func TestQuickTagHeapSortsByKey(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var h sched.TagHeap
		type entry struct {
			key    float64
			serial int
		}
		var want []entry
		for i := 0; i < int(n); i++ {
			key := float64(rng.Intn(8)) // coarse keys to force ties
			p := &sched.Packet{Seq: int64(i)}
			h.PushTag(key, p)
			want = append(want, entry{key, i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		for _, w := range want {
			p := h.PopMin()
			if p.Seq != int64(w.serial) {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSFQTagInvariants: for any arrival pattern, per-flow start tags
// are non-decreasing, F = S + l/r exactly, and S >= the virtual time at
// arrival.
func TestQuickSFQTagInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := core.New()
		weights := map[int]float64{1: 50 + rng.Float64()*500, 2: 50 + rng.Float64()*500}
		for fl, w := range weights {
			if err := s.AddFlow(fl, w); err != nil {
				return false
			}
		}
		lastStart := map[int]float64{}
		now := 0.0
		for i := 0; i < 120; i++ {
			if rng.Intn(3) == 0 {
				s.Dequeue(now)
				continue
			}
			now += rng.Float64() * 0.1
			fl := 1 + rng.Intn(2)
			p := &sched.Packet{Flow: fl, Length: 1 + rng.Float64()*500}
			vBefore := s.V()
			if err := s.Enqueue(now, p); err != nil {
				return false
			}
			if p.VirtualStart < vBefore-1e-12 {
				return false
			}
			if p.VirtualStart < lastStart[fl]-1e-12 {
				return false
			}
			want := p.VirtualStart + p.Length/weights[fl]
			if math.Abs(p.VirtualFinish-want) > 1e-9 {
				return false
			}
			lastStart[fl] = p.VirtualStart
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSFQVirtualTimeMonotone: v(t) never decreases, across busy
// periods and idle gaps, for any interleaving of enqueues and dequeues.
func TestQuickSFQVirtualTimeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := core.New()
		if err := s.AddFlow(1, 100); err != nil {
			return false
		}
		if err := s.AddFlow(2, 10); err != nil {
			return false
		}
		now, prevV := 0.0, 0.0
		for i := 0; i < 200; i++ {
			now += rng.Float64() * 0.05
			if rng.Intn(2) == 0 {
				p := &sched.Packet{Flow: 1 + rng.Intn(2), Length: 1 + rng.Float64()*100}
				if err := s.Enqueue(now, p); err != nil {
					return false
				}
			} else {
				s.Dequeue(now)
			}
			if s.V() < prevV-1e-12 {
				return false
			}
			prevV = s.V()
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickConservation: for every scheduler, everything enqueued is
// dequeued exactly once, in per-flow FIFO order, and Len/QueuedBytes
// return to zero.
func TestQuickConservation(t *testing.T) {
	mks := map[string]func() sched.Interface{
		"SFQ":  func() sched.Interface { return core.New() },
		"HSFQ": func() sched.Interface { return sched.MustNew("hsfq") },
		"SCFQ": func() sched.Interface { return sched.MustNew("scfq") },
		"WFQ":  func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(1000)) },
		"FQS": func() sched.Interface {
			return sched.MustNewRanked(sched.RankWFQ(true), sched.Config{AssumedCapacity: 1000})
		},
		"DRR":  func() sched.Interface { return sched.MustNew("drr", sched.WithQuantum(500)) },
		"VC":   func() sched.Interface { return sched.MustNew("vclock") },
		"EDD":  func() sched.Interface { return sched.MustNew("edd") },
		"FIFO": func() sched.Interface { return sched.MustNew("fifo") },
		"FA":   func() sched.Interface { return sched.MustNew("fairairport") },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := mk()
				nf := 1 + rng.Intn(4)
				for fl := 1; fl <= nf; fl++ {
					if err := s.AddFlow(fl, 10+rng.Float64()*1000); err != nil {
						return false
					}
				}
				type key struct{ flow int }
				sent := map[key][]int64{}
				got := map[key][]int64{}
				now := 0.0
				var seqs [8]int64
				total := 0
				for i := 0; i < 150; i++ {
					now += rng.Float64() * 0.02
					if rng.Intn(5) < 3 {
						fl := 1 + rng.Intn(nf)
						seqs[fl]++
						p := &sched.Packet{Flow: fl, Seq: seqs[fl], Length: 1 + rng.Float64()*300, Arrival: now}
						if err := s.Enqueue(now, p); err != nil {
							return false
						}
						sent[key{fl}] = append(sent[key{fl}], seqs[fl])
						total++
					} else if p, ok := s.Dequeue(now); ok {
						got[key{p.Flow}] = append(got[key{p.Flow}], p.Seq)
						total--
					}
				}
				// Drain.
				for {
					p, ok := s.Dequeue(now)
					if !ok {
						break
					}
					got[key{p.Flow}] = append(got[key{p.Flow}], p.Seq)
					total--
				}
				if total != 0 || s.Len() != 0 {
					return false
				}
				for fl := 1; fl <= nf; fl++ {
					if s.QueuedBytes(fl) > 1e-9 || s.QueuedBytes(fl) < -1e-9 {
						return false
					}
					a, b := sent[key{fl}], got[key{fl}]
					if len(a) != len(b) {
						return false
					}
					for i := range a {
						if a[i] != b[i] { // per-flow FIFO preserved
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickDRRDeficitBounded: a flow's deficit counter never exceeds its
// quantum (invariant from [19]) — checked indirectly: between consecutive
// packets of the same flow in the output, the flow never sends more than
// quantum + lmax bytes within one round.
func TestQuickDRRRoundFairness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const quantum = 500.0
		s := sched.MustNew("drr", sched.WithQuantum(quantum))
		if err := s.AddFlow(1, 1); err != nil {
			return false
		}
		if err := s.AddFlow(2, 1); err != nil {
			return false
		}
		lmax := 0.0
		for i := 0; i < 200; i++ {
			fl := 1 + i%2
			l := 1 + rng.Float64()*400
			if l > lmax {
				lmax = l
			}
			if err := s.Enqueue(0, &sched.Packet{Flow: fl, Length: l}); err != nil {
				return false
			}
		}
		// Within any maximal run of same-flow output, the bytes served
		// must not exceed quantum + lmax (one round's allowance plus the
		// packet that overshoots the deficit).
		run := 0.0
		prev := 0
		for s.QueuedBytes(1) > 0 && s.QueuedBytes(2) > 0 {
			p, ok := s.Dequeue(0)
			if !ok {
				break
			}
			if p.Flow == prev {
				run += p.Length
			} else {
				run = p.Length
				prev = p.Flow
			}
			if run > quantum+lmax+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSCFQTagsChain: SCFQ per-flow finish tags increase by exactly
// l/r along a backlogged chain.
func TestQuickSCFQTagsChain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sched.MustNew("scfq")
		w := 100 + rng.Float64()*900
		if err := s.AddFlow(1, w); err != nil {
			return false
		}
		prevF := 0.0
		for i := 0; i < 50; i++ {
			l := 1 + rng.Float64()*500
			p := &sched.Packet{Flow: 1, Length: l}
			if err := s.Enqueue(0, p); err != nil {
				return false
			}
			if i > 0 && math.Abs(p.VirtualStart-prevF) > 1e-9 {
				return false
			}
			prevF = p.VirtualFinish
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickVirtualClockStampsMonotone: per-flow VC stamps are strictly
// increasing and never behind real time + l/r.
func TestQuickVirtualClockStampsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sched.MustNew("vclock")
		w := 100 + rng.Float64()*900
		if err := s.AddFlow(1, w); err != nil {
			return false
		}
		now, prev := 0.0, math.Inf(-1)
		for i := 0; i < 80; i++ {
			now += rng.Float64() * 0.1
			l := 1 + rng.Float64()*200
			p := &sched.Packet{Flow: 1, Length: l}
			if err := s.Enqueue(now, p); err != nil {
				return false
			}
			if p.VirtualFinish <= prev || p.VirtualFinish < now+l/w-1e-9 {
				return false
			}
			prev = p.VirtualFinish
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
