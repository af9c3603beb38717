package rt_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/admission"
	_ "repro/internal/core"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/server"
)

func newAdmitter(t *testing.T, cfg rt.AdmitterConfig, opts ...sched.Option) *rt.Admitter {
	t.Helper()
	if cfg.Runtime == nil {
		cfg.Runtime = mustRuntime(t, "sfq", opts...)
	}
	if cfg.Limit == 0 {
		cfg.Limit = 1
	}
	a, err := rt.NewAdmitter(cfg)
	if err != nil {
		t.Fatalf("NewAdmitter: %v", err)
	}
	return a
}

func TestAdmitterConfigValidation(t *testing.T) {
	r := mustRuntime(t, "sfq")
	for _, cfg := range []rt.AdmitterConfig{
		{Runtime: nil, Limit: 1},
		{Runtime: r, Limit: 0},
		{Runtime: r, Limit: -3},
		{Runtime: r, Limit: 1, MaxQueued: -1},
		{Runtime: r, Limit: 1, CompactThreshold: -1},
	} {
		if _, err := rt.NewAdmitter(cfg); !errors.Is(err, sched.ErrBadConfig) {
			t.Errorf("NewAdmitter(%+v) = %v, want ErrBadConfig", cfg, err)
		}
	}
}

// TestAdmitterFairOrder pins the point of the facade: seats are handed out
// in the discipline's schedule order, not submission order. The expected
// order is computed by running the identical virtual packets through a
// bare SFQ instance.
func TestAdmitterFairOrder(t *testing.T) {
	type req struct {
		flow int
		cost float64
	}
	weights := map[int]float64{1: 1, 2: 2, 3: 4}
	var reqs []req
	for i := 0; i < 8; i++ {
		for f := 1; f <= 3; f++ {
			reqs = append(reqs, req{flow: f, cost: 10})
		}
	}

	// Reference schedule from the bare discipline at a frozen clock.
	ref := sched.MustNew("sfq")
	for f, w := range weights {
		if err := ref.AddFlow(f, w); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range reqs {
		if err := ref.Enqueue(0, &sched.Packet{Flow: q.flow, Seq: int64(i), Length: q.cost}); err != nil {
			t.Fatal(err)
		}
	}
	var want []int
	for {
		p, ok := ref.Dequeue(0)
		if !ok {
			break
		}
		want = append(want, p.Flow)
	}

	// Same requests through the admitter: frozen manual clock, dispatch
	// paused during submission, then seats released one at a time.
	clock := &sched.ManualClock{}
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 1}, sched.WithClock(clock))
	for f, w := range weights {
		if err := a.AdmitFlow(admission.Request{Flow: f, Rate: w, LMax: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetLimit(0); err != nil {
		t.Fatal(err)
	}
	tickets := make([]*rt.Ticket, len(reqs))
	for i, q := range reqs {
		tk, err := a.Submit(q.flow, q.cost)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	if got := a.Queued(); got != len(reqs) {
		t.Fatalf("Queued = %d, want %d", got, len(reqs))
	}
	if err := a.SetLimit(1); err != nil {
		t.Fatal(err)
	}
	var got []int
	for range reqs {
		var running *rt.Ticket
		for _, tk := range tickets {
			if tk.Running() {
				if running != nil {
					t.Fatal("two tickets hold the single seat")
				}
				running = tk
			}
		}
		if running == nil {
			t.Fatalf("no ticket running after %d dispatches", len(got))
		}
		got = append(got, running.Flow())
		if err := running.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order diverges at %d: got %v, want %v", i, got, want)
		}
	}
	if a.Executing() != 0 || a.Queued() != 0 {
		t.Fatalf("executing/queued = %d/%d after drain", a.Executing(), a.Queued())
	}
}

func TestAdmitterShedding(t *testing.T) {
	clock := &sched.ManualClock{}
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 1, MaxQueued: 2}, sched.WithClock(clock))
	if err := a.AdmitFlow(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLimit(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Submit(1, 1); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := a.Submit(1, 1); !errors.Is(err, sched.ErrShedding) {
		t.Fatalf("submit over MaxQueued: %v", err)
	}
	// Submitting for a flow never admitted fails loudly, not silently.
	if _, err := a.Submit(9, 1); !errors.Is(err, sched.ErrShedding) && !errors.Is(err, sched.ErrUnknownFlow) {
		t.Fatalf("submit unknown flow: %v", err)
	}
}

func TestAdmitterCancelAndFinish(t *testing.T) {
	clock := &sched.ManualClock{}
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 1}, sched.WithClock(clock))
	if err := a.AdmitFlow(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLimit(0); err != nil {
		t.Fatal(err)
	}
	tk, err := a.Submit(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait on canceled ctx: %v", err)
	}
	// A canceled ticket never ran: Finish is an ErrBadState.
	if err := tk.Finish(); !errors.Is(err, sched.ErrBadState) {
		t.Fatalf("finish canceled ticket: %v", err)
	}
	// The canceled ticket must not consume a seat once dispatch resumes.
	tk2, err := a.Submit(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetLimit(1); err != nil {
		t.Fatal(err)
	}
	if err := tk2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk2.Seq() == 0 || !tk2.Running() {
		t.Fatalf("ticket 2 not dispatched (seq %d)", tk2.Seq())
	}
	if err := tk2.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := tk2.Finish(); !errors.Is(err, sched.ErrBadState) {
		t.Fatalf("double finish: %v", err)
	}
}

// TestAdmitterCancelCompaction is the regression test for dead-ticket
// compaction: before it, canceled tickets kept their MaxQueued slots (and
// their flows' QueuedBytes) until a seat freed and dispatch popped past
// them, so a cancel storm under a long seat hold could wedge intake. Now
// the cancel that brings the canceled backlog to CompactThreshold drops
// the queue's dead prefix immediately — no seat movement required — and
// fair order is preserved via the staged live ticket.
func TestAdmitterCancelCompaction(t *testing.T) {
	clock := &sched.ManualClock{}
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 1, MaxQueued: 5, CompactThreshold: 3},
		sched.WithClock(clock))
	if err := a.AdmitFlow(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLimit(0); err != nil { // no seats: nothing can dispatch
		t.Fatal(err)
	}
	tickets := make([]*rt.Ticket, 5)
	for i := range tickets {
		tk, err := a.Submit(1, 1)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Two cancels stay below the threshold: slots remain occupied.
	for i := 0; i < 2; i++ {
		if err := tickets[i].Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel %d: %v", i, err)
		}
	}
	if got := a.Queued(); got != 5 {
		t.Fatalf("Queued = %d before threshold, want 5", got)
	}
	if _, err := a.Submit(1, 1); !errors.Is(err, sched.ErrShedding) {
		t.Fatalf("submit with dead tickets below threshold: %v", err)
	}

	// The third cancel reaches the threshold: the dead prefix (tickets
	// 0-2) is dropped with no seat movement, freeing their slots.
	if err := tickets[2].Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatal("cancel 2")
	}
	if got := a.Queued(); got != 2 {
		t.Fatalf("Queued = %d after compaction, want 2", got)
	}
	extra, err := a.Submit(1, 1) // the freed slots accept new work again
	if err != nil {
		t.Fatalf("submit after compaction: %v", err)
	}

	// Fair order survives: dispatch serves 3, 4, then the late submit.
	if err := a.SetLimit(1); err != nil {
		t.Fatal(err)
	}
	for i, tk := range []*rt.Ticket{tickets[3], tickets[4], extra} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if !tk.Running() {
			t.Fatalf("ticket %d dispatched out of order", i)
		}
		if err := tk.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Executing() != 0 || a.Queued() != 0 {
		t.Fatalf("executing/queued = %d/%d after drain", a.Executing(), a.Queued())
	}
}

// TestAdmitterCompactionStagesLiveHead covers the staged path: when the
// queue's head is live at compaction time, it is popped and parked, and
// the next dispatch must serve it first (fair order), even though the
// dead tickets behind it could not be dropped yet.
func TestAdmitterCompactionStagesLiveHead(t *testing.T) {
	clock := &sched.ManualClock{}
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 1, CompactThreshold: 2}, sched.WithClock(clock))
	if err := a.AdmitFlow(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLimit(0); err != nil {
		t.Fatal(err)
	}
	tickets := make([]*rt.Ticket, 4)
	for i := range tickets {
		tk, err := a.Submit(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Cancel tickets 1 and 2 — the head (0) stays live, so compaction
	// stages it and leaves the dead pair queued behind it.
	for _, i := range []int{1, 2} {
		if err := tickets[i].Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel %d", i)
		}
	}
	if got := a.Queued(); got != 4 {
		t.Fatalf("Queued = %d with live head staged, want 4", got)
	}
	if err := a.SetLimit(1); err != nil {
		t.Fatal(err)
	}
	// Ticket 0 (staged) must hold the seat; the dead pair popped and
	// vanished on the way to 3.
	if err := tickets[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !tickets[0].Running() {
		t.Fatal("staged ticket not dispatched first")
	}
	if err := tickets[0].Finish(); err != nil {
		t.Fatal(err)
	}
	if err := tickets[3].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tickets[3].Finish(); err != nil {
		t.Fatal(err)
	}
	if a.Executing() != 0 || a.Queued() != 0 {
		t.Fatalf("executing/queued = %d/%d after drain", a.Executing(), a.Queued())
	}
}

func TestAdmitterClose(t *testing.T) {
	clock := &sched.ManualClock{}
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 1}, sched.WithClock(clock))
	if err := a.AdmitFlow(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLimit(0); err != nil {
		t.Fatal(err)
	}
	tk, err := a.Submit(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(1, 1); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if err := a.Close(); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	// Requests already waiting still dispatch in fair order.
	if err := a.SetLimit(1); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tk.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitterForeignPackets pins the checked dispatch assertion: a packet
// enqueued on the runtime directly (not through Submit) must not panic
// dispatch — it is drained and discarded — and the request behind it still
// dispatches. Seq is polled concurrently with dispatch to pin its
// atomicity under -race.
func TestAdmitterForeignPackets(t *testing.T) {
	clock := &sched.ManualClock{}
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 1}, sched.WithClock(clock))
	if err := a.AdmitFlow(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLimit(0); err != nil {
		t.Fatal(err)
	}
	// A foreign packet sneaks in ahead of the real request.
	if err := a.Runtime().Enqueue(&sched.Packet{Flow: 1, Length: 1}); err != nil {
		t.Fatal(err)
	}
	tk, err := a.Submit(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tk.Seq()
			}
		}
	}()
	if err := a.SetLimit(1); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if tk.Seq() != 1 {
		t.Fatalf("Seq = %d, want 1", tk.Seq())
	}
	if err := tk.Finish(); err != nil {
		t.Fatal(err)
	}
	if a.Executing() != 0 || a.Queued() != 0 {
		t.Fatalf("executing/queued = %d/%d after drain", a.Executing(), a.Queued())
	}
}

// TestAdmitterController runs the control plane end to end: Theorem-style
// reservation checks gate AdmitFlow, refusals pass through unchanged, and
// DelayBound reports the admitted flow's Theorem-4 term.
func TestAdmitterController(t *testing.T) {
	ctrl := admission.NewController(server.FCParams{C: 100})
	a := newAdmitter(t, rt.AdmitterConfig{Limit: 2, Controller: ctrl})
	if err := a.AdmitFlow(admission.Request{Flow: 1, Rate: 60, LMax: 10}); err != nil {
		t.Fatal(err)
	}
	if err := a.AdmitFlow(admission.Request{Flow: 2, Rate: 60, LMax: 10}); !errors.Is(err, admission.ErrOverCommitted) {
		t.Fatalf("over-committed admit: %v", err)
	}
	if _, err := a.Runtime().FlowShard(2); !errors.Is(err, sched.ErrUnknownFlow) {
		t.Fatal("refused flow leaked onto the data path")
	}
	if d, err := a.DelayBound(1); err != nil || d <= 0 {
		t.Fatalf("DelayBound = %v/%v", d, err)
	}
	if err := a.ReleaseFlow(1); err != nil {
		t.Fatal(err)
	}
	// Capacity is free again.
	if err := a.AdmitFlow(admission.Request{Flow: 2, Rate: 60, LMax: 10}); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	// Without a controller, DelayBound is a config error.
	bare := newAdmitter(t, rt.AdmitterConfig{Limit: 1})
	if _, err := bare.DelayBound(1); !errors.Is(err, sched.ErrBadConfig) {
		t.Fatalf("DelayBound without controller: %v", err)
	}
}

// TestAdmitterConcurrent hammers Admit/Finish from many goroutines under
// the race detector: the seat limit must never be exceeded and every
// admitted request must finish.
func TestAdmitterConcurrent(t *testing.T) {
	const limit = 3
	a := newAdmitter(t, rt.AdmitterConfig{Limit: limit})
	for f := 1; f <= 4; f++ {
		if err := a.AdmitFlow(admission.Request{Flow: f, Rate: float64(f), LMax: 1}); err != nil {
			t.Fatal(err)
		}
	}
	perFlow := 50
	if testing.Short() {
		perFlow = 10
	}
	var wg sync.WaitGroup
	var inFlight, peak, violations int64
	var mu sync.Mutex
	for f := 1; f <= 4; f++ {
		for i := 0; i < perFlow; i++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				tk, err := a.Submit(f, 1)
				if err == nil {
					err = tk.Wait(context.Background())
				}
				if err != nil {
					t.Errorf("admit flow %d: %v", f, err)
					return
				}
				mu.Lock()
				inFlight++
				if inFlight > peak {
					peak = inFlight
				}
				if inFlight > limit {
					violations++
				}
				inFlight--
				mu.Unlock()
				if err := tk.Finish(); err != nil {
					t.Errorf("finish flow %d: %v", f, err)
				}
			}(f)
		}
	}
	wg.Wait()
	if violations > 0 {
		t.Fatalf("seat limit exceeded %d times (peak %d > %d)", violations, peak, limit)
	}
	if a.Executing() != 0 || a.Queued() != 0 {
		t.Fatalf("executing/queued = %d/%d after drain", a.Executing(), a.Queued())
	}
}
