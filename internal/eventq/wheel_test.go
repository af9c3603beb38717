package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// promotedQueue returns an empty queue already in the wheel phase, with its
// cursor at tick 0: it pushes past promoteAt and cancels everything by
// handle. The fillers sit far in the future except one at time 0, which
// pins the cursor there — the cursor goes to the minimum pending tick at
// promotion, and behind a far-future cursor every later push would land in
// ready and the buckets would go untested.
func promotedQueue(tb testing.TB) *Queue {
	tb.Helper()
	q := new(Queue)
	nop := func(any) {}
	hs := make([]Handle, promoteAt+1)
	for i := range hs {
		hs[i] = q.Schedule(float64(i)*1e3, nop, nil)
	}
	for _, h := range hs {
		if !q.Cancel(h) {
			tb.Fatal("promotedQueue: filler cancel failed")
		}
	}
	if q.w == nil || q.Len() != 0 || q.Steps() != 0 {
		tb.Fatalf("promotedQueue: promoted=%v Len=%d Steps=%d", q.w != nil, q.Len(), q.Steps())
	}
	return q
}

// checkTiers verifies, node by node, the invariant the determinism argument
// and advance's one-bucket-per-level rule rest on: ready holds exactly the
// ticks ≤ cursor; every bucket node is ahead of the cursor by at most 256
// slots of its level and filed under its tick's slot; the occupancy bits
// and the counters match the lists.
func checkTiers(tb testing.TB, q *Queue) {
	tb.Helper()
	w := q.w
	if w == nil {
		if len(q.ready) != q.pending {
			tb.Fatalf("heap phase: ready holds %d of %d pending", len(q.ready), q.pending)
		}
		return
	}
	for _, n := range q.ready {
		if n.tick > w.curTick || n.level != levelReady {
			tb.Fatalf("ready node tick %d level %d, cursor %d", n.tick, n.level, w.curTick)
		}
	}
	for _, n := range w.over {
		if n.tick <= w.curTick || n.level != levelOverflow {
			tb.Fatalf("overflow node tick %d level %d, cursor %d", n.tick, n.level, w.curTick)
		}
	}
	inBuckets := 0
	for l := range w.buckets {
		shift := uint(l) * wheelBits
		for slot, n := range w.buckets[l] {
			if occ := w.occ[l][slot>>6]>>(uint(slot)&63)&1 == 1; occ != (n != nil) {
				tb.Fatalf("level %d slot %d: occupancy bit %v, bucket non-empty %v", l, slot, occ, n != nil)
			}
			for ; n != nil; n = n.next {
				inBuckets++
				ahead := n.tick>>shift - w.curTick>>shift
				if n.tick <= w.curTick || ahead > wheelSlots || int(n.level) != l ||
					int(n.slot) != slot || int(n.tick>>shift&wheelMask) != slot {
					tb.Fatalf("level %d slot %d: node tick %d level %d slot %d, cursor %d",
						l, slot, n.tick, n.level, n.slot, w.curTick)
				}
			}
		}
	}
	if inBuckets != w.n || len(q.ready)+len(w.over)+w.n != q.pending {
		tb.Fatalf("ready %d + overflow %d + buckets %d (counter %d) != pending %d",
			len(q.ready), len(w.over), inBuckets, w.n, q.pending)
	}
}

// bothPhases runs body on a fresh queue — the heap phase, for the handful
// of events most tests here schedule — and on a promoted one, so that what
// is pinned is pinned for the heap and for the wheel.
func bothPhases(t *testing.T, body func(t *testing.T, q *Queue)) {
	t.Run("fresh", func(t *testing.T) { body(t, new(Queue)) })
	t.Run("promoted", func(t *testing.T) { body(t, promotedQueue(t)) })
}

// TestCancelLenSteps is the regression test for the cancellation
// bookkeeping satellite: Cancel must decrement Len exactly once, never
// bump Steps, and a cancelled event must never fire. On the promoted queue
// it exercises all three tiers a pending event can live in (ready heap,
// wheel bucket, overflow heap).
func TestCancelLenSteps(t *testing.T) { bothPhases(t, testCancelLenSteps) }

func testCancelLenSteps(t *testing.T, q *Queue) {
	fired := map[int]bool{}
	rec := func(arg any) { fired[arg.(int)] = true }

	// Three co-resident events per tier. Tick resolution is 1µs, so:
	// ready-tier events need the cursor advanced past them (schedule two,
	// fire one to drag the cursor), wheel events sit microseconds-to-
	// minutes out, overflow events sit > 2^32 µs ≈ 71.6 min out.
	hWheel := q.Schedule(0.001, rec, 1)
	hWheel2 := q.Schedule(0.002, rec, 2)
	hOver := q.Schedule(1e7, rec, 3)
	hNear := q.Schedule(3e-7, rec, 4) // sub-tick: in the cursor's own tick, so ready
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}

	// Peek fires nothing (and may move the cursor).
	if tt, ok := q.PeekTime(); !ok || tt != 3e-7 {
		t.Fatalf("PeekTime = %v,%v", tt, ok)
	}
	if q.Steps() != 0 {
		t.Fatalf("Steps after peek = %d, want 0", q.Steps())
	}

	for i, h := range []Handle{hNear, hWheel, hOver} {
		if !q.Cancel(h) {
			t.Fatalf("Cancel #%d returned false for a pending event", i)
		}
		if q.Cancel(h) {
			t.Fatalf("double Cancel #%d returned true", i)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("Len after 3 cancels = %d, want 1", q.Len())
	}
	if q.Steps() != 0 {
		t.Fatalf("Steps after cancels = %d, want 0", q.Steps())
	}

	q.Run()
	if q.Len() != 0 || q.Steps() != 1 {
		t.Fatalf("after Run: Len=%d Steps=%d, want 0/1", q.Len(), q.Steps())
	}
	if fired[1] || fired[3] || fired[4] || !fired[2] {
		t.Fatalf("fired = %v, want only id 2", fired)
	}
	// The handle of a fired event is stale.
	if q.Cancel(hWheel2) {
		t.Fatal("Cancel of an already-fired event returned true")
	}
	// The zero Handle never cancels.
	if q.Cancel(Handle{}) {
		t.Fatal("Cancel of zero Handle returned true")
	}
}

// TestHandleStaleAfterReuse pins the ABA guard: once a node is recycled
// for a new event, the old Handle (same node pointer, older seq) must not
// cancel the new event.
func TestHandleStaleAfterReuse(t *testing.T) { bothPhases(t, testHandleStaleAfterReuse) }

func testHandleStaleAfterReuse(t *testing.T, q *Queue) {
	var fired int
	count := func(any) { fired++ }
	h1 := q.Schedule(1, count, nil)
	if !q.Cancel(h1) {
		t.Fatal("first Cancel failed")
	}
	// The freed node is recycled for the next event.
	h2 := q.Schedule(2, count, nil)
	if q.Cancel(h1) {
		t.Fatal("stale Handle cancelled a recycled node's new event")
	}
	q.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if q.Cancel(h2) {
		t.Fatal("Cancel after fire returned true")
	}
}

// TestCascadeAcrossLevels schedules events spanning every wheel level and
// the overflow tier with heavy ties, and checks the execution order is the
// exact (time, seq) order — i.e. cascading from high levels down to the
// ready tier loses neither events nor ordering.
func TestCascadeAcrossLevels(t *testing.T) {
	// 400 events take the fresh queue through promotion mid-schedule; the
	// promoted queue places every one of them by the wheel's rules.
	bothPhases(t, func(t *testing.T, q *Queue) {
		type ev struct {
			time float64
			seq  int
		}
		seq := 0
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var want []ev
			var got []ev
			// Scales chosen to land in level 0 (µs), 1-2 (ms-s), 3 (minutes),
			// and overflow (> 71.6 min = 4295 s).
			scales := []float64{1e-6, 1e-3, 1, 60, 1e4}
			for i := 0; i < 400; i++ {
				tt := q.Now() + float64(rng.Intn(16))*scales[rng.Intn(len(scales))]
				e := ev{time: tt, seq: seq}
				seq++
				want = append(want, e)
				q.AtCall(tt, func(arg any) { got = append(got, arg.(ev)) }, e)
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].time < want[j].time })
			q.Run()
			if len(got) != len(want) {
				t.Fatalf("seed %d: fired %d of %d events", seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: event %d = %+v, want %+v", seed, i, got[i], want[i])
				}
			}
			if q.Len() != 0 {
				t.Fatalf("seed %d: Len = %d after Run", seed, q.Len())
			}
		}
	})
}

// TestWheelMatchesHeapWithCancels drives the queue and the sorted-slice
// model of fuzz_test.go with an identical random schedule, cancelling a
// random subset by handle, and requires identical execution order of the
// survivors and identical Cancel results. Interleaves scheduling with
// stepping so the cursor is mid-wheel when new events arrive (the "push
// behind the cursor" path). About 100 events are pending at a time: the
// fresh run stays a heap, the promoted run is the wheel.
func TestWheelMatchesHeapWithCancels(t *testing.T) {
	bothPhases(t, func(t *testing.T, q *Queue) {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := fuzzModel{now: q.Now()}
			var got, want []int
			var handles []Handle
			var ids []int
			id := 0
			rec := func(arg any) { got = append(got, arg.(int)) }
			schedule := func(n int) {
				for i := 0; i < n; i++ {
					tt := q.Now() + rng.Float64()*float64(rng.Intn(5000))*1e-3
					handles = append(handles, q.Schedule(tt, rec, id))
					ids = append(ids, id)
					m.schedule(tt, id)
					id++
				}
			}
			schedule(100)
			for round := 0; round < 20; round++ {
				// Cancel a few random outstanding handles.
				for i := 0; i < 3 && len(handles) > 0; i++ {
					k := rng.Intn(len(handles))
					if g, w := q.Cancel(handles[k]), m.cancel(ids[k]); g != w {
						t.Fatalf("seed %d: Cancel(id %d) = %v, model says %v", seed, ids[k], g, w)
					}
					handles = append(handles[:k], handles[k+1:]...)
					ids = append(ids[:k], ids[k+1:]...)
				}
				for i := 0; i < 10; i++ {
					q.Step()
					if e, ok := m.step(); ok {
						want = append(want, e)
					}
				}
				checkTiers(t, q)
				schedule(10)
			}
			q.Run()
			for e, ok := m.step(); ok; e, ok = m.step() {
				want = append(want, e)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: queue fired %d, model fired %d", seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: position %d: queue %d, model %d", seed, i, got[i], want[i])
				}
			}
		}
	})
}

// TestPromotionCrossing takes handles while the queue is a heap, pushes it
// past promoteAt, and then cancels and fires through those handles: the
// nodes moved from the heap into buckets and the overflow tier under the
// handles' feet, and pop order, Len, Steps and stale-handle refusals must
// all still match the sorted-slice model.
func TestPromotionCrossing(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var m fuzzModel
		var got, want []int
		rec := func(arg any) { got = append(got, arg.(int)) }
		var handles []Handle
		scales := []float64{1e-6, 1e-3, 1, 60, 1e4}
		schedule := func() {
			tt := q.Now() + float64(rng.Intn(16))*scales[rng.Intn(len(scales))]
			id := len(handles)
			handles = append(handles, q.Schedule(tt, rec, id))
			m.schedule(tt, id)
		}
		step := func() {
			id, ok := m.step()
			if q.Step() != ok {
				t.Fatalf("seed %d: Step disagrees with the model (%v)", seed, ok)
			}
			if ok {
				want = append(want, id)
			}
		}
		cancel := func(id int) {
			if g, w := q.Cancel(handles[id]), m.cancel(id); g != w {
				t.Fatalf("seed %d: Cancel(id %d) = %v, model says %v", seed, id, g, w)
			}
		}
		check := func(what string) {
			t.Helper()
			if q.Len() != len(m.evs) || q.Steps() != uint64(len(want)) {
				t.Fatalf("seed %d, %s: Len=%d Steps=%d, model %d/%d",
					seed, what, q.Len(), q.Steps(), len(m.evs), len(want))
			}
			checkTiers(t, &q)
		}

		// Heap phase: fill to the brim, cancel and fire a few.
		for i := 0; i < promoteAt; i++ {
			schedule()
		}
		for i := 0; i < 8; i++ {
			cancel(rng.Intn(promoteAt))
			step()
		}
		if q.w != nil {
			t.Fatalf("seed %d: promoted at %d pending, before passing promoteAt", seed, q.Len())
		}
		check("heap phase")
		heapHandles := len(handles)

		// Cross.
		for q.w == nil {
			schedule()
		}
		if q.Len() != promoteAt+1 {
			t.Fatalf("seed %d: promoted at Len %d, want %d", seed, q.Len(), promoteAt+1)
		}
		check("after promotion")

		// Wheel phase, through heap-phase handles: half of them cancelled
		// (some already fired or cancelled: stale, refused), steps between.
		for i := 0; i < heapHandles/2; i++ {
			cancel(rng.Intn(heapHandles))
			if i%4 == 0 {
				step()
				schedule()
			}
		}
		check("after wheel-phase cancels")
		q.Run()
		for id, ok := m.step(); ok; id, ok = m.step() {
			want = append(want, id)
		}
		check("after drain")
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d: queue %d, model %d", seed, i, got[i], want[i])
			}
		}
		for id := range handles {
			if q.Cancel(handles[id]) {
				t.Fatalf("seed %d: handle %d cancelled something after the drain", seed, id)
			}
		}
	}
}

// TestCancelZeroAlloc: the schedule/cancel cycle must not allocate in
// steady state — cancelled nodes return to the free list.
func TestCancelZeroAlloc(t *testing.T) { bothPhases(t, testCancelZeroAlloc) }

func testCancelZeroAlloc(t *testing.T, q *Queue) {
	count := func(any) {}
	// Warm the free list and tier slices.
	hs := make([]Handle, 64)
	for i := range hs {
		hs[i] = q.Schedule(float64(i+1), count, nil)
	}
	for _, h := range hs {
		q.Cancel(h)
	}
	base := 100.0
	allocs := testing.AllocsPerRun(100, func() {
		for i := range hs {
			hs[i] = q.Schedule(base+float64(i), count, nil)
		}
		for _, h := range hs {
			if !q.Cancel(h) {
				t.Fatal("cancel failed")
			}
		}
		base += 100
	})
	if allocs != 0 {
		t.Fatalf("Schedule/Cancel cycle allocated %v times, want 0", allocs)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cancelling everything", q.Len())
	}
}

// TestRunBefore pins the half-open window semantics used by the parallel
// topology runner: events strictly before the horizon run, events at the
// horizon wait, and the clock lands exactly on the horizon.
func TestRunBefore(t *testing.T) { bothPhases(t, testRunBefore) }

func testRunBefore(t *testing.T, q *Queue) {
	fired := map[float64]bool{}
	for _, tt := range []float64{1, 2, 3} {
		tt := tt
		q.At(tt, func() { fired[tt] = true })
	}
	q.RunBefore(2)
	if !fired[1] || fired[2] {
		t.Fatalf("RunBefore(2) fired %v", fired)
	}
	if q.Now() != 2 {
		t.Fatalf("Now = %v, want 2", q.Now())
	}
	// Scheduling exactly at the horizon from the next window is legal.
	q.At(2, func() { fired[2.5] = true })
	q.RunBefore(4)
	if !fired[2] || !fired[2.5] || !fired[3] {
		t.Fatalf("RunBefore(4) fired %v", fired)
	}
	if q.Now() != 4 {
		t.Fatalf("Now = %v, want 4", q.Now())
	}
}

// TestPeekThenEarlierPush pins the cursor-runs-ahead subtlety: peeking an
// empty-ish queue advances the wheel cursor; a later push with an earlier
// (but still future) time must fire first regardless.
func TestPeekThenEarlierPush(t *testing.T) { bothPhases(t, testPeekThenEarlierPush) }

func testPeekThenEarlierPush(t *testing.T, q *Queue) {
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }
	q.AtCall(10, rec, 1)
	if tt, ok := q.PeekTime(); !ok || tt != 10 {
		t.Fatalf("PeekTime = %v,%v", tt, ok)
	}
	// Cursor now sits at tick(10); these pushes land at or behind it.
	q.AtCall(1, rec, 2)
	q.AtCall(5, rec, 3)
	q.AtCall(10, rec, 4)
	q.Run()
	wantOrder := []int{2, 3, 1, 4}
	if len(got) != 4 {
		t.Fatalf("fired %v", got)
	}
	for i := range got {
		if got[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", got, wantOrder)
		}
	}
}
