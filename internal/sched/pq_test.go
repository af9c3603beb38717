package sched_test

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// oracleItem mirrors TagHeap's ordering contract: (key, serial).
type oracleItem struct {
	key    float64
	serial uint64
	p      *sched.Packet
}

// oracleHeap is the container/heap implementation the typed TagHeap
// replaced; it serves as the ordering oracle for the property test.
type oracleHeap []oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].serial < h[j].serial
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestTagHeapMatchesOracle pushes duplicate-heavy random keys into the
// typed heap and the container/heap oracle, interleaving pops, and requires
// the identical packet sequence — i.e. strict (key, serial) order with FIFO
// tie-breaking survived the rewrite.
func TestTagHeapMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h sched.TagHeap
		var o oracleHeap
		serial := uint64(0)
		pending := 0
		for op := 0; op < 2000; op++ {
			if pending == 0 || rng.Float64() < 0.6 {
				// Draw from a tiny alphabet so key ties are common.
				key := float64(rng.Intn(5))
				p := &sched.Packet{Flow: op, Length: 1}
				serial++
				h.PushTag(key, p)
				heap.Push(&o, oracleItem{key: key, serial: serial, p: p})
				pending++
			} else {
				got := h.PopMin()
				want := heap.Pop(&o).(oracleItem)
				if got != want.p {
					t.Fatalf("seed %d op %d: popped flow %d, oracle popped flow %d (key %v)",
						seed, op, got.Flow, want.p.Flow, want.key)
				}
				pending--
			}
		}
		// Drain: the tails must agree too, and pop order must be
		// nondecreasing in key.
		lastKey := -1.0
		for pending > 0 {
			got := h.PopMin()
			want := heap.Pop(&o).(oracleItem)
			if got != want.p {
				t.Fatalf("seed %d drain: typed heap diverged from oracle", seed)
			}
			if want.key < lastKey {
				t.Fatalf("seed %d drain: keys went backwards: %v after %v", seed, want.key, lastKey)
			}
			lastKey = want.key
			pending--
		}
		if h.Len() != 0 || o.Len() != 0 {
			t.Fatalf("seed %d: heaps not drained", seed)
		}
	}
}

// TestTagHeapZeroAlloc pins the reason the heap was rewritten: once the
// backing slice has grown, push/pop cycles must not allocate at all. The
// container/heap version allocated twice per cycle (boxing on Push and
// Pop); any regression to boxing fails this guard.
func TestTagHeapZeroAlloc(t *testing.T) {
	const depth = 64
	var h sched.TagHeap
	ps := make([]*sched.Packet, depth)
	for i := range ps {
		ps[i] = &sched.Packet{Flow: i, Length: 1}
	}
	// Warm up so the slice reaches capacity before measuring.
	for i, p := range ps {
		h.PushTag(float64(i%7), p)
	}
	for range ps {
		h.PopMin()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, p := range ps {
			h.PushTag(float64((depth-i)%7), p)
		}
		for range ps {
			h.PopMin()
		}
	})
	if allocs != 0 {
		t.Fatalf("TagHeap push/pop allocated %v times per cycle, want 0", allocs)
	}
}
