package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core" // registers sfq, hsfq and, through internal/hier, the hier: names
	"repro/internal/eventq"
	"repro/internal/hier"
	_ "repro/internal/pifo"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topo"
)

// The zero-allocation contract of the packet path, one row per cycle. A row
// must read 0 allocs/op: the mean over allocRuns ops rounded down, as `go
// test -benchmem` prints it. What is still amortised passes: the fluid heap
// of wfq and fqs, which this cycle overloads so that it grows
// without bound (0.0004-0.0006). One allocation per packet or per batch fails. Scheduler rows
// come from sched.Names(): a discipline is covered the moment it registers.
// A sim.Link under MonitorAll has a row too: the monitor's hooks only append
// to a chunked log, so a departure costs no allocation beyond a new chunk
// every thousand rows. Reading the monitor is left out: a read folds the
// log into the records and the per-flow views, whose samples and curves
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
	for _, name := range registryRows() {
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
			// A chain of depth-1 classes, with the flows schedCycle
			// registers (re-weighted by its AddFlow) at the bottom.
			root := &hier.Spec{Name: "sfq", Class: "root"}
			bottom := root
			for d := 1; d < depth; d++ {
				c := &hier.Spec{Name: "sfq", Class: fmt.Sprintf("c%d", d), Weight: 1}
				bottom.Children = []*hier.Spec{c}
				bottom = c
			}
			for f := 0; f < 8; f++ {
				bottom.Children = append(bottom.Children, &hier.Spec{IsFlow: true, Flow: f, Weight: 1})
			}
			h, err := hier.Build(root, sched.Config{})
			if err != nil {
				t.Fatal(err)
			}
			zeroAllocs(t, schedCycle(t, h, h.AddFlow, 8))
		})
	}
}

// newSched builds name, or the discipline a retired name built, with the
// options every registry name needs to build.
func newSched(t *testing.T, name string) sched.Interface {
	t.Helper()
	if n, ok := retiredNames[name]; ok {
		name = n
	}
	s, err := sched.New(name, sched.WithAssumedCapacity(1e6), sched.WithQuantum(2000))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// retiredNames maps each alias the registry took before Register lost its
// aliases parameter to the discipline the alias built. Each keeps its rows
// here, built through the registry as that discipline.
var retiredNames = map[string]string{
	"flowsfq":     "sfq",
	"vc":          "vclock",
	"fa":          "fairairport",
	"fifoplus":    "fifo+",
	"pifo-scfq":   "scfq",
	"pifo-vclock": "vclock",
	"pifo-edd":    "edd",
	"pifo-wfq":    "wfq",
}

// registryRows returns the registered names and the retired ones, sorted.
func registryRows() []string {
	rows := sched.Names()
	for old := range retiredNames {
		rows = append(rows, old)
	}
	sort.Strings(rows)
	return rows
}

// TestZeroAllocExact holds the disciplines that keep their packets in the
// flow records' pooled FIFOs (FIFO, DRR, Fair Airport, strict priority over
// one FIFO sink, a tree of DRR and EDD sinks) to exactly zero: not one
// allocation in a whole batch after one batch of warm-up, where a rounded
// mean would let slice growth by.
//
// The priority row has one sink, as the composition it replaced had every
// flow on its lowest level. With two sinks (hier:priority(fifo,fifo)) the
// 16-flow row allocates once, at op 7 956 of 10 000: strict priority keeps
// nearly all 16 packets in the low sink, spread over its 8 flows' FIFOs,
// and one layout of them first needs more chunks than that sink's own pool
// has ever held. That is growth to a bound, which the rounded mean of
// TestZeroAllocSchedulers passes, not a per-batch cost.
func TestZeroAllocExact(t *testing.T) {
	const batch = 5000
	for _, name := range []string{"fifo", "drr", "fairairport", "hier:priority(fifo)", "hier:sfq(drr,edd)"} {
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

// A source's whole path: a Poisson source on the event queue feeds a
// MonitorAll link that transmits into a Sink, which hands each frame back to
// the source. An op is one frame through, from the events that emit and
// send it to its count at the sink; after the warm-up fills the source's
// free list, nothing is allocated per frame. The same holds for a
// one-domain topo.Build path of two hops with propagation delay, whose
// auto-sink ends the frames.
func TestZeroAllocPath(t *testing.T) {
	through := func(t *testing.T, out func(q *eventq.Queue) (sim.Consumer, *sim.Sink)) {
		q := &eventq.Queue{}
		entry, sink := out(q)
		(&source.Poisson{Q: q, Out: entry, Flow: 1, Rate: 8e5, PktBytes: 500, // 80 % of 1 MB/s
			Stop: math.Inf(1), Rng: rand.New(rand.NewSource(1))}).Run()
		op := func() {
			for n := sink.Count(1); sink.Count(1) == n; {
				if !q.Step() {
					t.Fatal("path ran dry")
				}
			}
		}
		for i := 0; i < 10000; i++ { // warm-up
			op()
		}
		zeroAllocs(t, op)
	}
	t.Run("link", func(t *testing.T) {
		through(t, func(q *eventq.Queue) (sim.Consumer, *sim.Sink) {
			sink := sim.NewSink(q)
			link := sim.NewLink(q, "l", core.New(), server.NewConstantRate(1e6), sink)
			if err := link.Scheduler().AddFlow(1, 1); err != nil {
				t.Fatal(err)
			}
			sim.MonitorAll(link)
			return link, sink
		})
	})
	t.Run("topo-2hop", func(t *testing.T) {
		through(t, func(q *eventq.Queue) (sim.Consumer, *sim.Sink) {
			net, err := topo.Build(q, []topo.LinkSpec{
				{Name: "a", From: "n0", To: "n1", Sched: core.New(), Proc: server.NewConstantRate(1e6), PropDelay: 0.001},
				{Name: "b", From: "n1", To: "n2", Sched: core.New(), Proc: server.NewConstantRate(1e6), PropDelay: 0.001},
			}, []topo.FlowSpec{{Flow: 1, Weight: 1, Route: []string{"a", "b"}}})
			if err != nil {
				t.Fatal(err)
			}
			return net.Entry(1), net.Sink(1)
		})
	})
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
