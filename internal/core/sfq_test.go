package core_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
	"repro/internal/sim"
)

func mustAdd(t *testing.T, s sched.Interface, flow int, w float64) {
	t.Helper()
	if err := s.AddFlow(flow, w); err != nil {
		t.Fatalf("AddFlow(%d, %v): %v", flow, w, err)
	}
}

func enq(t *testing.T, s sched.Interface, now float64, flow int, length float64) *sched.Packet {
	t.Helper()
	p := &sched.Packet{Flow: flow, Length: length, Arrival: now}
	if err := s.Enqueue(now, p); err != nil {
		t.Fatalf("Enqueue(flow %d at %v): %v", flow, now, err)
	}
	return p
}

func deq(t *testing.T, s sched.Interface, now float64) *sched.Packet {
	t.Helper()
	p, ok := s.Dequeue(now)
	if !ok {
		t.Fatalf("Dequeue at %v: empty", now)
	}
	return p
}

// TestTagAssignment checks eqs (4)–(5) on a hand-worked scenario.
func TestTagAssignment(t *testing.T) {
	s := core.New()
	mustAdd(t, s, 1, 100) // 100 B/s
	mustAdd(t, s, 2, 200)

	// Flow 1 sends two 100 B packets at t=0: S=0,F=1 then S=1,F=2.
	p11 := enq(t, s, 0, 1, 100)
	p12 := enq(t, s, 0, 1, 100)
	if p11.VirtualStart != 0 || p11.VirtualFinish != 1 {
		t.Errorf("p11 tags = (%v,%v), want (0,1)", p11.VirtualStart, p11.VirtualFinish)
	}
	if p12.VirtualStart != 1 || p12.VirtualFinish != 2 {
		t.Errorf("p12 tags = (%v,%v), want (1,2)", p12.VirtualStart, p12.VirtualFinish)
	}

	// Flow 2 sends a 100 B packet: S = max(v=0, 0) = 0, F = 0.5.
	p21 := enq(t, s, 0, 2, 100)
	if p21.VirtualStart != 0 || p21.VirtualFinish != 0.5 {
		t.Errorf("p21 tags = (%v,%v), want (0,0.5)", p21.VirtualStart, p21.VirtualFinish)
	}

	// Start-tag order with FIFO tie-break: p11 (S=0, first), p21 (S=0),
	// then p12 (S=1).
	if got := deq(t, s, 0); got != p11 {
		t.Fatalf("first dequeue = %+v, want p11", got)
	}
	if s.V() != 0 {
		t.Errorf("v after serving p11 = %v, want 0", s.V())
	}
	if got := deq(t, s, 1); got != p21 {
		t.Fatalf("second dequeue should be p21")
	}
	if got := deq(t, s, 1.5); got != p12 {
		t.Fatalf("third dequeue should be p12")
	}
	if s.V() != 1 {
		t.Errorf("v after serving p12 = %v, want 1", s.V())
	}
}

// TestArrivalToIdleFlowUsesV checks S = max(v, F_prev) when v has advanced
// past the flow's last finish tag.
func TestArrivalToIdleFlowUsesV(t *testing.T) {
	s := core.New()
	mustAdd(t, s, 1, 100)
	mustAdd(t, s, 2, 100)

	enq(t, s, 0, 1, 100) // S=0 F=1
	enq(t, s, 0, 1, 100) // S=1 F=2
	deq(t, s, 0)
	deq(t, s, 1) // v = 1

	p := enq(t, s, 1, 2, 100)
	if p.VirtualStart != 1 {
		t.Errorf("idle flow start tag = %v, want v = 1", p.VirtualStart)
	}
}

// TestBusyPeriodEnd checks step 2: at the end of a busy period v jumps to
// the maximum finish tag served.
func TestBusyPeriodEnd(t *testing.T) {
	s := core.New()
	mustAdd(t, s, 1, 100)
	mustAdd(t, s, 2, 100)

	enq(t, s, 0, 1, 100) // S=0 F=1
	deq(t, s, 0)
	if _, ok := s.Dequeue(1); ok {
		t.Fatal("queue should be empty")
	}
	if s.V() != 1 {
		t.Errorf("v after busy period = %v, want maxFinish = 1", s.V())
	}

	// A new busy period's first packet starts at v = 1 even though the
	// other flow never sent anything.
	p := enq(t, s, 5, 2, 50)
	if p.VirtualStart != 1 {
		t.Errorf("new busy period start tag = %v, want 1", p.VirtualStart)
	}
}

// TestGeneralizedPerPacketRate checks eq (36): per-packet rates replace
// the flow weight in the finish tag.
func TestGeneralizedPerPacketRate(t *testing.T) {
	s := core.New()
	mustAdd(t, s, 1, 100)
	p := &sched.Packet{Flow: 1, Length: 100, Rate: 400}
	if err := s.Enqueue(0, p); err != nil {
		t.Fatal(err)
	}
	if p.VirtualFinish != 0.25 {
		t.Errorf("finish tag with per-packet rate = %v, want 0.25", p.VirtualFinish)
	}
}

// TestErrors exercises the error paths.
func TestErrors(t *testing.T) {
	s := core.New()
	if err := s.AddFlow(1, 0); err == nil {
		t.Error("zero weight should be rejected")
	}
	if err := s.Enqueue(0, &sched.Packet{Flow: 9, Length: 1}); err == nil {
		t.Error("unknown flow should be rejected")
	}
	mustAdd(t, s, 1, 10)
	if err := s.Enqueue(0, &sched.Packet{Flow: 1, Length: 0}); err == nil {
		t.Error("zero-length packet should be rejected")
	}
	enq(t, s, 5, 1, 10)
	if err := s.Enqueue(1, &sched.Packet{Flow: 1, Length: 10}); err == nil {
		t.Error("time going backwards should be rejected")
	}
	if err := s.RemoveFlow(1); err == nil {
		t.Error("removing a backlogged flow should be rejected")
	}
	deq(t, s, 5)
	if err := s.RemoveFlow(1); err != nil {
		t.Errorf("removing idle flow: %v", err)
	}
	if err := s.RemoveFlow(1); err == nil {
		t.Error("double remove should fail")
	}
}

// TestTieBreakLowWeightFirst checks the §2.3 tie-breaking option.
func TestTieBreakLowWeightFirst(t *testing.T) {
	s := core.NewTie(core.TieLowWeightFirst)
	mustAdd(t, s, 1, 1000) // high-rate flow
	mustAdd(t, s, 2, 10)   // low-rate (interactive) flow
	pHigh := enq(t, s, 0, 1, 100)
	pLow := enq(t, s, 0, 2, 100)
	if pHigh.VirtualStart != pLow.VirtualStart {
		t.Fatalf("tags should tie: %v vs %v", pHigh.VirtualStart, pLow.VirtualStart)
	}
	if got := deq(t, s, 0); got != pLow {
		t.Error("low-weight packet should win the tie")
	}
}

// start-tag monotonicity: the sequence of start tags selected by Dequeue
// never decreases (this is what makes v(t) well defined).
func checkVMonotone(t *testing.T, recs []sim.ServiceRecord) {
	t.Helper()
	// service records are in completion order == selection order for a
	// single link.
	_ = recs
}

// TestTheorem1ConstantRate: both flows backlogged on a constant-rate link;
// measured unfairness obeys the Theorem 1 bound and service is split by
// weight.
func TestTheorem1ConstantRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := core.New()
	mustAdd(t, s, 1, 100)
	mustAdd(t, s, 2, 300)
	flows := []schedtest.FlowSpec{
		{Flow: 1, Weight: 100, MaxBytes: 400},
		{Flow: 2, Weight: 300, MaxBytes: 600},
	}
	res := schedtest.Drive(s, server.NewConstantRate(1000), schedtest.RandomBacklogged(rng, flows, 200))

	h := fairness.MonitorUnfairness(res.Mon, 1, 2, 100, 300)
	bound := qos.SFQFairnessBound(400, 100, 600, 300)
	if h > bound+1e-9 {
		t.Errorf("H(1,2) = %v exceeds Theorem 1 bound %v", h, bound)
	}

	// Over the jointly backlogged interval, service splits ≈ 1:3.
	joint := fairness.Intersect(res.Mon.BackloggedIntervals(1), res.Mon.BackloggedIntervals(2))
	if len(joint) == 0 {
		t.Fatal("no joint backlog")
	}
	iv := joint[0]
	w1 := res.Mon.ServiceCurve(1).Delta(iv.Start, iv.End)
	w2 := res.Mon.ServiceCurve(2).Delta(iv.Start, iv.End)
	ratio := w2 / w1
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("service ratio w2/w1 over joint backlog = %v, want ≈ 3", ratio)
	}
}

// TestTheorem1VariableRate: the same bound must hold on fluctuating
// servers — the paper's headline property (no assumption on the server).
func TestTheorem1VariableRate(t *testing.T) {
	procs := map[string]func() server.Process{
		"periodic-onoff": func() server.Process { return server.NewPeriodicOnOff(1000, 0.05) },
		"random-slotted": func() server.Process {
			return server.NewRandomSlotted(1000, 0.01, rand.New(rand.NewSource(7)))
		},
		"markov": func() server.Process {
			return server.NewMarkovModulated([]float64{200, 800, 2000}, 0.02, rand.New(rand.NewSource(9)))
		},
	}
	for name, mk := range procs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			s := core.New()
			mustAdd(t, s, 1, 50)
			mustAdd(t, s, 2, 150)
			flows := []schedtest.FlowSpec{
				{Flow: 1, Weight: 50, MaxBytes: 300},
				{Flow: 2, Weight: 150, MaxBytes: 500},
			}
			res := schedtest.Drive(s, mk(), schedtest.RandomBacklogged(rng, flows, 150))
			h := fairness.MonitorUnfairness(res.Mon, 1, 2, 50, 150)
			bound := qos.SFQFairnessBound(300, 50, 500, 150)
			if h > bound+1e-9 {
				t.Errorf("%s: H = %v exceeds bound %v", name, h, bound)
			}
		})
	}
}

// TestTheorem1PropertySporadic: randomized sporadic workloads (flows drift
// in and out of backlog) across many seeds; the bound must hold for every
// pair over every jointly backlogged interval.
func TestTheorem1PropertySporadic(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nf := 2 + rng.Intn(3)
		flows := make([]schedtest.FlowSpec, nf)
		s := core.New()
		for i := range flows {
			w := 50 + rng.Float64()*450
			flows[i] = schedtest.FlowSpec{Flow: i + 1, Weight: w, MaxBytes: 100 + rng.Float64()*900}
			mustAdd(t, s, i+1, w)
		}
		proc := server.NewPeriodicOnOff(1500, 0.04)
		res := schedtest.Drive(s, proc, schedtest.RandomSporadic(rng, flows, 60, 2.0))
		for i := 0; i < nf; i++ {
			for j := i + 1; j < nf; j++ {
				f, m := flows[i], flows[j]
				h := fairness.MonitorUnfairness(res.Mon, f.Flow, m.Flow, f.Weight, m.Weight)
				bound := qos.SFQFairnessBound(f.MaxBytes, f.Weight, m.MaxBytes, m.Weight)
				if h > bound+1e-9 {
					t.Errorf("seed %d pair (%d,%d): H = %v > bound %v", seed, f.Flow, m.Flow, h, bound)
				}
			}
		}
	}
}

// TestTheorem2Throughput: a backlogged flow on an FC server receives at
// least the Theorem-2 guarantee over every suffix of the run.
func TestTheorem2Throughput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := core.New()
	// Σ r_n = 1000 = C.
	weights := []float64{100, 300, 600}
	var sumLmax float64
	flows := make([]schedtest.FlowSpec, len(weights))
	for i, w := range weights {
		mustAdd(t, s, i+1, w)
		flows[i] = schedtest.FlowSpec{Flow: i + 1, Weight: w, MaxBytes: 500}
		sumLmax += 500
	}
	proc := server.NewPeriodicOnOff(1000, 0.05) // FC(1000, 50)
	fc := proc.FC()
	res := schedtest.Drive(s, proc, schedtest.RandomBacklogged(rng, flows, 300))

	// Flow 1 is backlogged from ~0 until its backlog interval closes.
	iv := res.Mon.BackloggedIntervals(1)
	if len(iv) == 0 {
		t.Fatal("flow 1 never backlogged")
	}
	first := iv[0]
	curve := res.Mon.ServiceCurve(1)
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		t2 := first.Start + (first.End-first.Start)*frac
		got := curve.Delta(first.Start, t2)
		want := qos.SFQThroughputBound(fc, 100, 500, sumLmax, t2-first.Start)
		if got < want-1e-6 {
			t.Errorf("W(0,%v) = %v below Theorem 2 bound %v", t2, got, want)
		}
	}
}

// TestTheorem4DelayBound: with Σ r_n <= C on a constant-rate server, every
// packet departs by EAT + Σ_{n≠f} l_n^max/C + l^j/C (δ = 0).
func TestTheorem4DelayBound(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		const c = 10000.0
		weights := []float64{1000, 3000, 6000}
		s := core.New()
		flows := make([]schedtest.FlowSpec, len(weights))
		lmax := make(map[int]float64)
		for i, w := range weights {
			mustAdd(t, s, i+1, w)
			flows[i] = schedtest.FlowSpec{Flow: i + 1, Weight: w, MaxBytes: 400}
			lmax[i+1] = 400
		}
		arr := schedtest.RandomSporadic(rng, flows, 80, 1.0)
		sort.SliceStable(arr, func(i, j int) bool { return arr[i].At < arr[j].At })
		res := schedtest.Drive(s, server.NewConstantRate(c), arr)

		// Reconstruct per-flow EAT chains in arrival order; packets within
		// a flow are served FIFO, so the k-th record of flow f matches the
		// k-th arrival of flow f.
		eats := map[int][]float64{}
		lens := map[int][]float64{}
		chains := map[int]*qos.EAT{}
		for _, a := range arr {
			ch := chains[a.Flow]
			if ch == nil {
				ch = &qos.EAT{}
				chains[a.Flow] = ch
			}
			w := weights[a.Flow-1]
			eats[a.Flow] = append(eats[a.Flow], ch.Next(a.At, a.Bytes, w))
			lens[a.Flow] = append(lens[a.Flow], a.Bytes)
		}
		idx := map[int]int{}
		fc := server.FCParams{C: c, Delta: 0}
		for _, rec := range res.Mon.ServiceRecords() {
			k := idx[rec.Flow]
			idx[rec.Flow]++
			eat := eats[rec.Flow][k]
			lj := lens[rec.Flow][k]
			if math.Abs(lj-rec.Bytes) > 1e-9 {
				t.Fatalf("seed %d: record/arrival mismatch for flow %d pkt %d", seed, rec.Flow, k)
			}
			sumOther := 0.0
			for f, l := range lmax {
				if f != rec.Flow {
					sumOther += l
				}
			}
			bound := qos.SFQDelayBound(fc, eat, lj, sumOther)
			if rec.End > bound+1e-9 {
				t.Errorf("seed %d: flow %d pkt %d departs %v after bound %v (EAT %v)",
					seed, rec.Flow, k, rec.End, bound, eat)
			}
		}
	}
}

// TestWorkConservation: the link is never idle while packets are queued —
// total service time equals total bytes / C on a constant-rate server when
// arrivals keep it busy.
func TestWorkConservation(t *testing.T) {
	s := core.New()
	mustAdd(t, s, 1, 1)
	mustAdd(t, s, 2, 1)
	var arr []schedtest.Arrival
	total := 0.0
	for i := 0; i < 100; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 1 + i%2, Bytes: 100})
		total += 100
	}
	res := schedtest.Drive(s, server.NewConstantRate(1000), arr)
	recs := res.Mon.ServiceRecords()
	last := recs[len(recs)-1]
	if math.Abs(last.End-total/1000) > 1e-9 {
		t.Errorf("busy period ends at %v, want %v", last.End, total/1000)
	}
}

// TestSelectionOrderMonotone: start tags selected by the server are
// non-decreasing within a busy period.
func TestSelectionOrderMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := core.New()
	mustAdd(t, s, 1, 100)
	mustAdd(t, s, 2, 200)
	mustAdd(t, s, 3, 700)
	flows := []schedtest.FlowSpec{
		{Flow: 1, Weight: 100, MaxBytes: 200},
		{Flow: 2, Weight: 200, MaxBytes: 300},
		{Flow: 3, Weight: 700, MaxBytes: 400},
	}
	arr := schedtest.RandomBacklogged(rng, flows, 100)

	// Drive manually to observe tags in selection order.
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].At < arr[j].At })
	for _, a := range arr {
		if err := s.Enqueue(a.At, &sched.Packet{Flow: a.Flow, Length: a.Bytes, Arrival: a.At}); err != nil {
			t.Fatal(err)
		}
	}
	prev := math.Inf(-1)
	for {
		p, ok := s.Dequeue(1)
		if !ok {
			break
		}
		if p.VirtualStart < prev-1e-12 {
			t.Fatalf("start tag went backwards: %v after %v", p.VirtualStart, prev)
		}
		prev = p.VirtualStart
	}
}
