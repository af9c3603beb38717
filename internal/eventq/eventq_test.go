package eventq

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(3, func() { got = append(got, 3) })
	q.At(1, func() { got = append(got, 1) })
	q.At(2, func() { got = append(got, 2) })
	q.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if q.Now() != 3 {
		t.Errorf("Now = %v, want 3", q.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(1, func() { got = append(got, i) })
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	var q Queue
	var got []float64
	q.At(1, func() {
		q.After(0.5, func() { got = append(got, q.Now()) })
	})
	q.Run()
	if len(got) != 1 || got[0] != 1.5 {
		t.Errorf("nested After = %v", got)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var q Queue
	q.At(5, func() {})
	q.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	q.At(1, func() {})
}

func TestRunUntil(t *testing.T) {
	var q Queue
	fired := map[float64]bool{}
	for _, tt := range []float64{1, 2, 3, 4} {
		tt := tt
		q.At(tt, func() { fired[tt] = true })
	}
	q.RunUntil(2)
	if !fired[1] || !fired[2] || fired[3] {
		t.Errorf("RunUntil(2) fired %v", fired)
	}
	if q.Now() != 2 {
		t.Errorf("Now = %v, want 2", q.Now())
	}
	q.RunUntil(3)
	if !fired[3] || fired[4] {
		t.Errorf("RunUntil(3) fired %v", fired)
	}
}

func TestStepAndLen(t *testing.T) {
	var q Queue
	q.At(1, func() {})
	q.At(2, func() {})
	if q.Len() != 2 {
		t.Errorf("Len = %d", q.Len())
	}
	if !q.Step() || q.Len() != 1 || q.Steps() != 1 {
		t.Error("Step bookkeeping wrong")
	}
	q.Run()
	if q.Step() {
		t.Error("Step on empty queue should return false")
	}
}

func TestInfiniteSchedulingPanics(t *testing.T) {
	for name, tt := range map[string]float64{"+Inf": math.Inf(1), "NaN": math.NaN()} {
		tt := tt
		t.Run(name, func(t *testing.T) {
			var q Queue
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v should panic", tt)
				}
			}()
			q.At(tt, func() {})
		})
	}
	// -Inf is simply "in the past" once the clock has started; it must
	// panic too, via the causality check.
	t.Run("-Inf", func(t *testing.T) {
		var q Queue
		defer func() {
			if recover() == nil {
				t.Error("scheduling at -Inf should panic")
			}
		}()
		q.At(math.Inf(-1), func() {})
	})
}

func TestAtCall(t *testing.T) {
	var q Queue
	var got []int
	add := func(arg any) { got = append(got, *arg.(*int)) }
	vals := []int{3, 1, 2}
	q.AtCall(3, add, &vals[0])
	q.AtCall(1, add, &vals[1])
	q.AfterCall(2, add, &vals[2])
	q.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("AtCall order = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("AtCall with nil callback should panic")
		}
	}()
	q.AtCall(4, nil, nil)
}

// TestScheduleStepZeroAlloc pins the point of the rewrite: once the heap
// slice has grown, an AtCall/Step cycle must not allocate. The old
// container/heap implementation boxed the event struct on both Push and
// Pop; the closure-taking At additionally allocated at most call sites.
func TestScheduleStepZeroAlloc(t *testing.T) { bothPhases(t, testScheduleStepZeroAlloc) }

func testScheduleStepZeroAlloc(t *testing.T, q *Queue) {
	var fired int
	count := func(any) { fired++ }
	// Warm up so the backing slice reaches capacity before measuring.
	for i := 0; i < 64; i++ {
		q.AtCall(float64(i), count, nil)
	}
	q.Run()
	base := q.Now()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.AtCall(base+float64(i), count, nil)
		}
		for q.Step() {
		}
		base = q.Now()
	})
	if allocs != 0 {
		t.Fatalf("AtCall/Step cycle allocated %v times, want 0", allocs)
	}
	// At with a pre-built closure must not allocate either: the func value
	// is pointer-shaped, so storing it in the event's arg does not box.
	fn := func() { fired++ }
	allocs = testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.At(base+float64(i), fn)
		}
		for q.Step() {
		}
		base = q.Now()
	})
	if allocs != 0 {
		t.Fatalf("At/Step cycle with prebuilt closure allocated %v times, want 0", allocs)
	}
}

// oracleEvent / oracleHeap replicate the binary container/heap
// implementation the 4-ary queue replaced, as an ordering oracle.
type oracleEvent struct {
	time float64
	seq  uint64
	id   int
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestFourAryMatchesBinaryOracle drives the 4-ary queue and the binary
// container/heap oracle with identical duplicate-heavy schedules and
// requires the identical execution order — i.e. same-time FIFO and overall
// (time, seq) order are independent of heap arity, which is what makes the
// rewrite replay-compatible.
func TestFourAryMatchesBinaryOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var o oracleHeap
		var seq uint64
		var got, want []int
		record := func(arg any) { got = append(got, arg.(*oracleEvent).id) }
		n := 500
		events := make([]oracleEvent, 0, n)
		for i := 0; i < n; i++ {
			// A tiny time alphabet forces heavy ties, exercising FIFO.
			tt := float64(rng.Intn(8))
			seq++
			events = append(events, oracleEvent{time: tt, seq: seq, id: i})
			heap.Push(&o, events[i])
			q.AtCall(tt, record, &events[i])
		}
		for o.Len() > 0 {
			want = append(want, heap.Pop(&o).(oracleEvent).id)
		}
		q.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: executed %d events, oracle has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d executed as %d, oracle says %d", seed, i, got[i], want[i])
			}
		}
	}
}

// Property: any random schedule executes in non-decreasing time order.
func TestQuickTimeMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var times []float64
		want := make([]float64, 0, n)
		for i := 0; i < int(n); i++ {
			tt := rng.Float64() * 100
			want = append(want, tt)
			q.At(tt, func() { times = append(times, q.Now()) })
		}
		q.Run()
		sort.Float64s(want)
		if len(times) != len(want) {
			return false
		}
		for i := range times {
			if times[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
