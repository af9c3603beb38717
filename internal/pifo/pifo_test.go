package pifo_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pifo"
	"repro/internal/sched"
)

// drive runs a deterministic interleaving of enqueues and dequeues over a
// scheduler and returns the served packets in order. All randomness comes
// from the seed, so two schedulers driven with the same seed see the same
// call sequence on packets with the same fields.
func drive(t *testing.T, s sched.Interface, seed int64, nflows, ops int) []*sched.Packet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for f := 0; f < nflows; f++ {
		if err := s.AddFlow(f, 100+1000*rng.Float64()); err != nil {
			t.Fatalf("AddFlow(%d): %v", f, err)
		}
	}
	var served []*sched.Packet
	seqs := make(map[int]int64)
	now := 0.0
	for i := 0; i < ops; i++ {
		now += rng.Float64() * 1e-3
		if rng.Intn(3) < 2 { // 2:1 enqueue bias builds a backlog
			f := rng.Intn(nflows)
			seqs[f]++
			p := &sched.Packet{Flow: f, Seq: seqs[f], Length: 64 + rng.Float64()*1400, Arrival: now}
			if rng.Intn(4) == 0 {
				p.Rate = 100 + 1000*rng.Float64()
			}
			if err := s.Enqueue(now, p); err != nil {
				t.Fatalf("Enqueue op %d: %v", i, err)
			}
		} else if p, ok := s.Dequeue(now); ok {
			served = append(served, p)
		}
	}
	for {
		now += 1e-4
		p, ok := s.Dequeue(now)
		if !ok {
			break
		}
		served = append(served, p)
	}
	return served
}

// ref is the test-only reference for the tag-based family: each
// discipline's equations written straight down over one flat packet list
// with a linear scan for the minimum (key, sub, arrival order) — no flow
// table, no heap, no clamp, none of the code under test. WFQ/FQS read the
// fluid virtual time off a private WFQ instance fed the same arrivals (the
// fluid system has its own oracle tests in internal/sched); everything
// else is independent.
type ref struct {
	name    string
	weight  map[int]float64
	dl      map[int]float64 // d_f (edd)
	chain   map[int]float64 // F(p_f^{j-1}), or the expected arrival time
	v, maxF float64
	busy    bool
	q       []refItem
	fluid   *sched.Ranked
}

type refItem struct {
	key, sub float64
	p        *sched.Packet
}

func (r *ref) AddFlow(flow int, w float64) error {
	r.weight[flow] = w
	if r.fluid != nil {
		return r.fluid.AddFlow(flow, w)
	}
	return nil
}

func (r *ref) Enqueue(now float64, p *sched.Packet) error {
	rate := r.weight[p.Flow]
	if p.Rate > 0 {
		rate = p.Rate // eq 36
	}
	var key, sub float64
	switch r.name {
	case "vclock": // eq 37
		eat := math.Max(now, r.chain[p.Flow])
		p.VirtualStart, p.VirtualFinish = eat, eat+p.Length/rate
		r.chain[p.Flow] = p.VirtualFinish
		key = p.VirtualFinish
	case "edd": // eq 66
		eat := math.Max(now, r.chain[p.Flow])
		r.chain[p.Flow] = eat + p.Length/rate
		p.Deadline = eat + r.dl[p.Flow]
		key = p.Deadline
	default: // eqs 4-5 (sfq, scfq) and 1-2 (wfq, fqs)
		v := r.v
		if r.fluid != nil {
			cp := *p
			if err := r.fluid.Enqueue(now, &cp); err != nil {
				return err
			}
			v = r.fluid.V()
		}
		p.VirtualStart = math.Max(v, r.chain[p.Flow])
		p.VirtualFinish = p.VirtualStart + p.Length/rate
		r.chain[p.Flow] = p.VirtualFinish
		key = p.VirtualFinish // scfq, wfq
		if r.name == "sfq" || r.name == "sfq-lowweight" || r.name == "fqs" {
			key = p.VirtualStart
		}
		if r.name == "sfq-lowweight" {
			sub = rate
		}
	}
	r.q = append(r.q, refItem{key, sub, p})
	return nil
}

func (r *ref) Dequeue(now float64) (*sched.Packet, bool) {
	if r.fluid != nil {
		r.fluid.Dequeue(now)
	}
	if len(r.q) == 0 {
		if r.busy { // step 2: the busy period ends
			r.busy, r.v = false, r.maxF
		}
		return nil, false
	}
	min := 0
	for i, it := range r.q {
		if m := r.q[min]; it.key < m.key || (it.key == m.key && it.sub < m.sub) {
			min = i
		}
	}
	p := r.q[min].p
	r.q = append(r.q[:min], r.q[min+1:]...)
	r.busy, r.v = true, p.VirtualStart
	if r.name == "scfq" {
		r.v = p.VirtualFinish
	}
	r.maxF = math.Max(r.maxF, p.VirtualFinish)
	return p, true
}

func (r *ref) RemoveFlow(int) error    { panic("not driven") }
func (r *ref) Len() int                { return len(r.q) }
func (r *ref) QueuedBytes(int) float64 { panic("not driven") }

// TestClassicParity drives each rank function of the tag-based family and
// the flat reference above with identical call sequences and requires
// bit-identical service order and tags (start, finish, and Delay EDD's
// deadline stamp under non-zero d_f, which no recorded digest covers).
func TestClassicParity(t *testing.T) {
	const capacity = 1e4
	suts := map[string]func() sched.Interface{
		"sfq":           func() sched.Interface { return core.New() },
		"sfq-lowweight": func() sched.Interface { return sched.MustNew("sfq-lowweight") },
		"scfq":          func() sched.Interface { return sched.MustNew("scfq") },
		"vclock":        func() sched.Interface { return sched.MustNew("vclock") },
		"wfq":           func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(capacity)) },
		"fqs": func() sched.Interface {
			return sched.MustNewRanked(sched.RankWFQ(true), sched.Config{AssumedCapacity: capacity})
		},
		"edd": func() sched.Interface {
			s := sched.MustNew("edd").(sched.EDD)
			for f := 0; f < 6; f++ {
				if err := s.AddFlowDeadline(f, 1, 0.004*float64(f%3)); err != nil {
					t.Fatal(err)
				}
			}
			return s
		},
	}
	for name, mk := range suts {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 40; seed++ {
				r := &ref{name: name, weight: map[int]float64{}, dl: map[int]float64{}, chain: map[int]float64{}}
				if name == "wfq" || name == "fqs" {
					r.fluid = sched.MustNew("wfq", sched.WithAssumedCapacity(capacity)).(*sched.Ranked)
				}
				for f := 0; f < 6; f++ {
					r.dl[f] = 0.004 * float64(f%3)
				}
				want := drive(t, r, seed, 2+int(seed%5), 400)
				got := drive(t, mk(), seed, 2+int(seed%5), 400)
				if len(got) != len(want) {
					t.Fatalf("seed %d: served %d packets, reference served %d", seed, len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if g.Flow != w.Flow || g.Seq != w.Seq {
						t.Fatalf("seed %d dequeue %d: flow %d seq %d, reference flow %d seq %d",
							seed, i, g.Flow, g.Seq, w.Flow, w.Seq)
					}
					if g.VirtualStart != w.VirtualStart || g.VirtualFinish != w.VirtualFinish || g.Deadline != w.Deadline {
						t.Fatalf("seed %d dequeue %d: tags (%v,%v,%v) != reference (%v,%v,%v)",
							seed, i, g.VirtualStart, g.VirtualFinish, g.Deadline,
							w.VirtualStart, w.VirtualFinish, w.Deadline)
					}
				}
			}
		})
	}
}

// TestClampNeverFiresForClassics asserts the claim in sched/rank.go: the
// tag-based family's per-flow ranks are monotone, so the monotonizing
// clamp stays untouched across randomized drives.
func TestClampNeverFiresForClassics(t *testing.T) {
	mks := map[string]func() *sched.Ranked{
		"sfq":    func() *sched.Ranked { return core.New() },
		"scfq":   func() *sched.Ranked { return sched.MustNew("scfq").(*sched.Ranked) },
		"vclock": func() *sched.Ranked { return sched.MustNew("vclock").(*sched.Ranked) },
		"edd":    func() *sched.Ranked { return sched.MustNew("edd").(sched.EDD).Ranked },
		"wfq":    func() *sched.Ranked { return sched.MustNew("wfq", sched.WithAssumedCapacity(1e4)).(*sched.Ranked) },
		"lstf":   func() *sched.Ranked { return sched.MustNewRanked(pifo.LSTF(), sched.Config{}) },
		"fifo+":  func() *sched.Ranked { return sched.MustNewRanked(pifo.FIFOPlus(), sched.Config{}) },
	}
	for name, mk := range mks {
		for seed := int64(0); seed < 10; seed++ {
			s := mk()
			drive(t, s, seed, 4, 300)
			if n := s.Clamped(); n != 0 {
				t.Errorf("%s seed %d: clamp fired %d times on a monotone discipline", name, seed, n)
			}
		}
	}
}

// TestClampMonotonizes feeds a deliberately decreasing rank sequence
// through a Ranked discipline and checks the PIFO turns it into per-flow
// FIFO order with the clamp counter advancing — defined behaviour for
// adversarial rank functions.
func TestClampMonotonizes(t *testing.T) {
	s := sched.MustNewRanked(sched.Discipline{
		Name: "decreasing",
		Rank: func(_ *sched.RankState, _ *sched.Flow, _ float64, p *sched.Packet) (float64, float64) {
			return float64(10 - p.Seq), 0 // ranks 10, 9, 8, ...
		},
	}, sched.Config{})
	if err := s.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	ps := make([]*sched.Packet, 5)
	for i := range ps {
		ps[i] = &sched.Packet{Flow: 1, Seq: int64(i), Length: 1}
		if err := s.Enqueue(0, ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Clamped() != 4 {
		t.Fatalf("clamped = %d, want 4", s.Clamped())
	}
	for i := range ps {
		if p, _ := s.Dequeue(0); p != ps[i] {
			t.Fatalf("pop %d: got seq %d, want %d (per-flow FIFO must survive the clamp)", i, p.Seq, i)
		}
	}
	// A drained flow starts a fresh chain: a lower rank is accepted again.
	if err := s.Enqueue(0, &sched.Packet{Flow: 1, Seq: 10, Length: 1}); err != nil {
		t.Fatal(err)
	}
	if s.Clamped() != 4 {
		t.Fatalf("fresh-chain push clamped: %d", s.Clamped())
	}
}

// TestSRPTOrder pins the discipline's definition on a hand-checked
// scenario: least remaining flow backlog first, flow id breaking ties,
// backlog tracked dynamically as packets arrive and leave.
func TestSRPTOrder(t *testing.T) {
	s := sched.MustNewRanked(pifo.SRPT(), sched.Config{})
	for f := 1; f <= 3; f++ {
		if err := s.AddFlow(f, 1000); err != nil {
			t.Fatal(err)
		}
	}
	enq := func(now float64, flow int, seq int64, length float64) {
		t.Helper()
		if err := s.Enqueue(now, &sched.Packet{Flow: flow, Seq: seq, Length: length}); err != nil {
			t.Fatal(err)
		}
	}
	// Backlogs: flow 1 = 300+300, flow 2 = 500, flow 3 = 500.
	enq(0, 1, 1, 300)
	enq(0, 1, 2, 300)
	enq(0, 2, 1, 500)
	enq(0, 3, 1, 500)
	want := []struct {
		flow int
		seq  int64
	}{
		{2, 1}, // 500 < 600, tie with flow 3 broken by id
		{3, 1},
		{1, 1}, // flow 1 (600) is all that remains
		{1, 2},
	}
	for i, w := range want {
		p, ok := s.Dequeue(float64(i+1) * 0.1)
		if !ok {
			t.Fatalf("dequeue %d: empty", i)
		}
		if p.Flow != w.flow || p.Seq != w.seq {
			t.Fatalf("dequeue %d: flow %d seq %d, want flow %d seq %d", i, p.Flow, p.Seq, w.flow, w.seq)
		}
	}
	// A new arrival shrinks its flow's remaining backlog mid-backlog:
	// flow 1 holds 900, flow 2 arrives with only 100 and must preempt the
	// next selection (not the per-flow order).
	enq(1, 1, 3, 900)
	enq(1, 2, 2, 100)
	if p, _ := s.Dequeue(1.1); p == nil || p.Flow != 2 {
		t.Fatalf("smaller-backlog flow 2 not served first: %+v", p)
	}
	if p, _ := s.Dequeue(1.2); p == nil || p.Flow != 1 {
		t.Fatalf("remaining flow 1 not served: %+v", p)
	}
}

// TestLSTFSlack pins LSTF's two slack sources: the per-packet input wins
// when set, the per-flow default 1/weight otherwise.
func TestLSTFSlack(t *testing.T) {
	s := sched.MustNewRanked(pifo.LSTF(), sched.Config{})
	if err := s.AddFlow(1, 10); err != nil { // default slack 0.1
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 1); err != nil { // default slack 1.0
		t.Fatal(err)
	}
	if err := s.AddFlow(3, 1); err != nil { // default slack 1.0
		t.Fatal(err)
	}
	ps := []struct {
		now float64
		p   *sched.Packet
	}{
		{0, &sched.Packet{Flow: 2, Seq: 1, Length: 1}},               // rank 0 + 1.0
		{0, &sched.Packet{Flow: 1, Seq: 1, Length: 1}},               // rank 0 + 0.1
		{0, &sched.Packet{Flow: 2, Seq: 2, Length: 1, Slack: 2.5}},   // explicit slack loosens
		{0, &sched.Packet{Flow: 3, Seq: 1, Length: 1, Slack: 0.001}}, // explicit slack overrides the 1.0 default
		{0.2, &sched.Packet{Flow: 1, Seq: 2, Length: 1, Slack: 0.01}},
	}
	for _, e := range ps {
		if err := s.Enqueue(e.now, e.p); err != nil {
			t.Fatal(err)
		}
	}
	lateNow, lateSlack := 0.2, 0.01 // runtime sum: rank arithmetic is float
	wantDeadlines := []float64{0.001, 0.1, lateNow + lateSlack, 1.0, 2.5}
	for i, want := range wantDeadlines {
		p, ok := s.Dequeue(0)
		if !ok || p.Deadline != want {
			t.Fatalf("dequeue %d: got %+v, want slack deadline %v", i, p, want)
		}
	}
}

// TestFIFOPlusOrder pins FIFO+: rank is arrival adjusted by carried
// upstream lateness, so a late packet overtakes locally younger ones but
// plain traffic stays strictly FIFO.
func TestFIFOPlusOrder(t *testing.T) {
	s := sched.MustNewRanked(pifo.FIFOPlus(), sched.Config{})
	for f := 1; f <= 2; f++ {
		if err := s.AddFlow(f, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue(1.0, &sched.Packet{Flow: 1, Seq: 1, Length: 1}); err != nil {
		t.Fatal(err)
	}
	// Arrives later but was delayed upstream: adjusted time 1.2 - 0.5 < 1.0?
	// No — slack *adds* upstream age as negative offset; carried Slack here
	// is the time already waited, so a delayed packet carries a *smaller*
	// remaining offset. Encode it directly: flow 2's packet arrives at 1.2
	// having already aged -0.5 relative to its aggregate (Slack = -0.5),
	// ranking it at 0.7, ahead of flow 1's 1.0.
	if err := s.Enqueue(1.2, &sched.Packet{Flow: 2, Seq: 1, Length: 1, Slack: -0.5}); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Dequeue(1.3); p == nil || p.Flow != 2 {
		t.Fatalf("upstream-delayed packet not served first: %+v", p)
	}
	if p, _ := s.Dequeue(1.4); p == nil || p.Flow != 1 {
		t.Fatalf("remaining packet not served: %+v", p)
	}
}

// TestSchedErrors walks the sched.Interface error contract.
func TestSchedErrors(t *testing.T) {
	s := core.New()
	if err := s.AddFlow(1, 0); !errors.Is(err, sched.ErrBadWeight) {
		t.Errorf("AddFlow weight 0 = %v, want ErrBadWeight", err)
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 9, Length: 1}); !errors.Is(err, sched.ErrUnknownFlow) {
		t.Errorf("Enqueue unknown flow = %v, want ErrUnknownFlow", err)
	}
	if err := s.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 1}); !errors.Is(err, sched.ErrBadPacket) {
		t.Errorf("Enqueue zero length = %v, want ErrBadPacket", err)
	}
	if err := s.Enqueue(1, &sched.Packet{Flow: 1, Length: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0.5, &sched.Packet{Flow: 1, Length: 10}); !errors.Is(err, sched.ErrTimeWentBack) {
		t.Errorf("Enqueue in the past = %v, want ErrTimeWentBack", err)
	}
	if err := s.RemoveFlow(1); !errors.Is(err, sched.ErrFlowBusy) {
		t.Errorf("RemoveFlow backlogged = %v, want ErrFlowBusy", err)
	}
	if err := s.RemoveFlow(9); !errors.Is(err, sched.ErrUnknownFlow) {
		t.Errorf("RemoveFlow unknown = %v, want ErrUnknownFlow", err)
	}
	if _, ok := s.Dequeue(2); !ok {
		t.Fatal("backlogged scheduler returned empty")
	}
	if err := s.RemoveFlow(1); err != nil {
		t.Errorf("RemoveFlow idle = %v", err)
	}
	if _, err := sched.NewRanked(sched.RankWFQ(false), sched.Config{}); !errors.Is(err, sched.ErrBadConfig) {
		t.Errorf("WFQ without capacity = %v, want ErrBadConfig", err)
	}
	if _, err := sched.NewRanked(sched.Discipline{Name: "norank"}, sched.Config{}); !errors.Is(err, sched.ErrBadConfig) {
		t.Errorf("nil Rank = %v, want ErrBadConfig", err)
	}
}

// TestRegistryEntries constructs every pifo-registered name through the
// registry path the tools use.
func TestRegistryEntries(t *testing.T) {
	for _, name := range []string{"pifo-sfq", "lstf", "srpt", "fifo+"} {
		if _, err := sched.New(name); err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
}
