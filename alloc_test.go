package repro_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core" // registers sfq, hsfq and, through internal/hier, the hier: names
	"repro/internal/eventq"
	_ "repro/internal/pifo"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// The zero-allocation contract of the packet path, one row per cycle. A row
// must read 0 allocs/op: the mean over allocRuns ops rounded down, as `go
// test -benchmem` prints it. What is still amortised passes: the fluid heap
// of wfq, fqs and pifo-wfq, which this cycle overloads so that it grows
// without bound (0.0004-0.0006). One allocation per packet or per batch fails. Scheduler rows
// come from sched.Names(): a discipline is covered the moment it registers.
// A sim.Link under MonitorAll has a row too: the monitor's hooks only append
// to a chunked log, so a departure costs no allocation beyond a new chunk
// every thousand rows. Capped Attach is left out: once its window is full it
// folds the oldest chunk into the per-flow views, whose samples and curves
// grow with every packet — that is its cost, paid in batches.
// Not repeated here: the event queue, pinned in both phases by
// internal/eventq's TestScheduleStepZeroAlloc and TestCancelZeroAlloc; the
// experiments, whose drift is e2e.allocs_per_op of the paper-suite workload.
const allocRuns = 2000

func zeroAllocs(t *testing.T, op func()) {
	t.Helper()
	if n := testing.AllocsPerRun(allocRuns, op); n != 0 {
		t.Errorf("%v allocs/op, want 0", n)
	}
}

// schedCycle registers nflows flows through add, queues one packet on each so
// that Dequeue never runs dry, and returns one op of the steady state: a packet
// for a random flow in, s's choice out and recycled the way a link recycles it.
func schedCycle(t *testing.T, s sched.Interface, add func(flow int, weight float64) error, nflows int) func() {
	for f := 0; f < nflows; f++ {
		if err := add(f, float64(f%7+1)*100); err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue(0, &sched.Packet{Flow: f, Length: 500}); err != nil {
			t.Fatal(err)
		}
	}
	var pool sched.PacketPool
	safe := sched.PoolSafeScheduler(s)
	for i := 0; !safe && i <= allocRuns; i++ { // s may keep what it hands out:
		pool.Put(new(sched.Packet)) // a fresh packet per op, made before the count
	}
	rng := rand.New(rand.NewSource(1))
	now := 0.0
	return func() {
		now += 1e-5
		p := pool.Get()
		p.Flow, p.Length = rng.Intn(nflows), 100+float64(rng.Intn(1400))
		if err := s.Enqueue(now, p); err != nil {
			t.Fatal(err)
		}
		out, ok := s.Dequeue(now)
		if !ok {
			t.Fatal("scheduler ran dry")
		}
		if safe {
			pool.Put(out)
		}
	}
}

func TestZeroAllocSchedulers(t *testing.T) {
	row := func(name string, nflows int) {
		t.Run(fmt.Sprintf("%s/%d", name, nflows), func(t *testing.T) {
			s := newSched(t, name)
			zeroAllocs(t, schedCycle(t, s, s.AddFlow, nflows))
		})
	}
	for _, name := range sched.Names() {
		row(name, 16)
		row(name, 4096)
	}
	if !testing.Short() {
		for _, name := range []string{"sfq", "scfq", "wfq", "lstf", "hsfq"} {
			runtime.GC() // a row holds 250 MB: let go of the last one's first
			row(name, 100000)
		}
	}
	for _, depth := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("hsfq/depth=%d", depth), func(t *testing.T) {
			h := core.NewHSFQ()
			var parent *core.Class
			for d := 1; d < depth; d++ {
				var err error
				if parent, err = h.NewClass(parent, fmt.Sprintf("c%d", d), 1); err != nil {
					t.Fatal(err)
				}
			}
			add := func(flow int, weight float64) error { return h.AddFlowTo(parent, flow, weight) }
			zeroAllocs(t, schedCycle(t, h, add, 8))
		})
	}
}

// newSched builds name with the options every registry name needs to build.
func newSched(t *testing.T, name string) sched.Interface {
	t.Helper()
	s, err := sched.New(name, sched.WithAssumedCapacity(1e6), sched.WithQuantum(2000), sched.WithLevels(sched.NewFIFO(), sched.NewFIFO()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestZeroAllocExact holds the disciplines that keep their packets in the
// flow records' pooled FIFOs (FIFO, DRR, Fair Airport, a priority over FIFO
// levels, a tree of DRR and EDD sinks) to exactly zero: not one allocation in
// a whole batch after one batch of warm-up, where a rounded mean would let
// slice growth by.
func TestZeroAllocExact(t *testing.T) {
	const batch = 5000
	for _, name := range []string{"fifo", "drr", "fairairport", "priority", "hier:sfq(drr,edd)"} {
		for _, nflows := range []int{16, 4096} {
			t.Run(fmt.Sprintf("%s/%d", name, nflows), func(t *testing.T) {
				s := newSched(t, name)
				op := schedCycle(t, s, s.AddFlow, nflows)
				// AllocsPerRun runs the batch once to warm up, then counts one.
				if n := testing.AllocsPerRun(1, func() {
					for i := 0; i < batch; i++ {
						op()
					}
				}); n != 0 {
					t.Errorf("%v allocations in %d ops, want 0", n, batch)
				}
			})
		}
	}
}

// TestZeroAllocMonitoredLink: one frame queued per flow on an sfq link with a
// MonitorAll monitor, and every departed frame sent straight back in, so one
// op is one event: a completion, the monitor's log rows (a departure and the
// backlog it closes), the redelivery and the next transmission.
func TestZeroAllocMonitoredLink(t *testing.T) {
	for _, nflows := range []int{16, 4096} {
		t.Run(fmt.Sprintf("flows=%d", nflows), func(t *testing.T) {
			q := &eventq.Queue{}
			var link *sim.Link
			back := sim.ConsumerFunc(func(f *sim.Frame) { link.Deliver(f) })
			link = sim.NewLink(q, "l", core.New(), server.NewConstantRate(1e9), back)
			for f := 0; f < nflows; f++ {
				if err := link.Scheduler().AddFlow(f, float64(f%7+1)); err != nil {
					t.Fatal(err)
				}
			}
			sim.MonitorAll(link)
			for f := 0; f < nflows; f++ {
				link.Deliver(&sim.Frame{Flow: f, Bytes: 500})
			}
			zeroAllocs(t, func() {
				if !q.Step() {
					t.Fatal("link ran dry")
				}
			})
		})
	}
}

func TestZeroAllocServerProcesses(t *testing.T) {
	for name, proc := range map[string]server.Process{
		"const":   server.NewConstantRate(1e6),
		"onoff":   server.NewPeriodicOnOff(1e6, 0.01),
		"slotted": server.NewRandomSlotted(1e6, 0.01, rand.New(rand.NewSource(1))),
		"markov":  server.NewMarkovModulated([]float64{5e5, 1e6, 2e6}, 0.01, rand.New(rand.NewSource(1))),
	} {
		t.Run(name, func(t *testing.T) {
			now := 0.0
			zeroAllocs(t, func() { now = proc.Finish(now, 1000) })
		})
	}
}

// One goroutine; an op is a batch of 64 in (EnqueueBatch) and back, shard by shard.
func TestZeroAllocRuntime(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r, err := rt.New("sfq", sched.WithShards(shards), sched.WithClock(rt.WallClock()))
			if err != nil {
				t.Fatal(err)
			}
			const batch = 64
			enq, deq := make([]*sched.Packet, batch), make([]*sched.Packet, batch)
			for f := range enq {
				if err := r.AddFlow(f, float64(f%7+1)); err != nil {
					t.Fatal(err)
				}
				enq[f] = &sched.Packet{Flow: f, Length: 100}
			}
			zeroAllocs(t, func() {
				if n, err := r.EnqueueBatch(enq); err != nil || n != batch {
					t.Fatalf("EnqueueBatch: %d of %d, %v", n, batch, err)
				}
				got := 0
				for s := 0; s < shards; s++ {
					got += r.DequeueBatch(s, deq[got:])
				}
				if got != batch {
					t.Fatalf("DequeueBatch returned %d of %d", got, batch)
				}
				copy(enq, deq)
			})
		})
	}
}
