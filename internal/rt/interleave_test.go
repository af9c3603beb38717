//go:build schedassert

package rt

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	_ "repro/internal/core"
	"repro/internal/sched"
)

var interleaveSeed = flag.Int64("interleave.seed", -1, "run TestInterleavings at this seed only")

// explorer runs a set of goroutines one at a time. The one running hands
// on at every yield point of the runtime (yield_on.go) to a goroutine its
// seeded generator picks, so a seed fixes the interleaving and a failing
// seed replays. Runtime locks are TryLock loops that yield, so no goroutine
// blocks outside a yield.
type explorer struct {
	rng   *rand.Rand
	wake  []chan struct{}
	live  []int
	cur   int
	steps int
	trace uint64 // FNV-1a over (goroutine, site) at every yield

	// Past maxSteps the explorer gives up control: every goroutine is
	// released to run concurrently so the run ends, and the seed fails.
	over    atomic.Bool
	release chan struct{}
	left    atomic.Int32
	done    chan struct{}
}

const maxSteps = 1 << 18

func (x *explorer) yield(s site) {
	if x.over.Load() {
		return
	}
	x.steps++
	x.trace = (x.trace ^ uint64(x.cur)<<8 ^ uint64(s)) * 1099511628211
	if x.steps > maxSteps {
		x.over.Store(true)
		close(x.release)
		return
	}
	next := x.live[x.rng.Intn(len(x.live))]
	if next == x.cur {
		return
	}
	me := x.cur
	x.cur = next
	x.wake[next] <- struct{}{}
	x.park(me)
}

func (x *explorer) park(me int) {
	select {
	case <-x.wake[me]:
	case <-x.release:
	}
}

// run starts fns and returns when all have returned.
func (x *explorer) run(seed int64, fns ...func()) {
	x.rng = rand.New(rand.NewSource(seed))
	x.trace = 14695981039346656037
	x.release, x.done = make(chan struct{}), make(chan struct{})
	x.left.Store(int32(len(fns)))
	for i := range fns {
		x.wake = append(x.wake, make(chan struct{}))
		x.live = append(x.live, i)
	}
	for i, fn := range fns {
		go func() {
			x.park(i)
			fn()
			x.exit(i)
		}()
	}
	x.cur = x.live[x.rng.Intn(len(x.live))]
	x.wake[x.cur] <- struct{}{}
	<-x.done
}

func (x *explorer) exit(me int) {
	if x.left.Add(-1) == 0 {
		close(x.done)
		return
	}
	if x.over.Load() {
		return
	}
	for i, g := range x.live {
		if g == me {
			x.live = append(x.live[:i], x.live[i+1:]...)
			break
		}
	}
	x.cur = x.live[x.rng.Intn(len(x.live))]
	x.wake[x.cur] <- struct{}{}
}

// tickClock advances a microsecond at every reading: deterministic under
// the explorer, and every stamp distinct.
type tickClock struct{ t float64 }

func (c *tickClock) Now() float64 { c.t += 1e-6; return c.t }

type departure struct {
	flow, shard int
	seq         int64
}

// interleaving is one seeded run: two producers pushing batches (one of
// them sometimes larger than the ingress, and single packets of a spare
// flow), a consumer draining every shard in turn, and a control goroutine
// that migrates flows, adds and removes the spare flow, reads ledgers and
// sometimes closes the runtime. One seed in five bounds the shards' queues,
// so pushes shed.
func interleaving(seed int64) (trace uint64, steps int, err error) {
	rng := rand.New(rand.NewSource(seed))
	nShards := 2 + rng.Intn(2)
	r, err := New("sfq", sched.WithShards(nShards), sched.WithClock(&tickClock{}))
	if err != nil {
		return 0, 0, err
	}
	const flows, spare = 4, 99
	for f := 0; f < flows; f++ {
		if err := r.AddFlow(f, float64(1+f)); err != nil {
			return 0, 0, err
		}
	}
	closeAt := -1
	if seed%4 == 0 {
		closeAt = rng.Intn(6)
	}
	big := seed%3 == 0
	limit := 0
	if seed%5 == 1 {
		limit = 4 + rng.Intn(8)
		r.SetQueueLimit(limit)
	}

	var (
		accepted  [flows + 1]int64 // spare counted last
		shed      [flows]int64
		prodDone  int
		closed    bool
		out       []departure
		violation error
	)
	fail := func(format string, args ...any) {
		if violation == nil {
			violation = fmt.Errorf(format, args...)
		}
	}
	idx := func(f int) int {
		if f == spare {
			return flows
		}
		return f
	}
	producer := func(id int) func() {
		prng := rand.New(rand.NewSource(seed*7 + int64(id)))
		seq := map[int]int64{}
		return func() {
			defer func() { prodDone++ }()
			for b := 0; b < 8; b++ {
				size := 1 + prng.Intn(6)
				if big && id == 0 && b == 3 {
					size = ingressCap + 9
				}
				batch := make([]*sched.Packet, size)
				for i := range batch {
					f := 2*id + prng.Intn(2)
					seq[f]++
					// The clock reads > 0, so a packet keeps Arrival -1
					// unless the push accepted it.
					batch[i] = &sched.Packet{Flow: f, Seq: seq[f], Length: float64(1 + prng.Intn(9)), Arrival: -1}
				}
				after := closed
				n, err := r.EnqueueBatch(batch)
				stamped := 0
				for _, p := range batch {
					if p.Arrival > 0 {
						stamped++
					}
				}
				switch {
				case after && (n != 0 || !errors.Is(err, sched.ErrClosed)):
					fail("EnqueueBatch after Close: n=%d err=%v", n, err)
				case n != stamped:
					fail("EnqueueBatch: n=%d, %d packets stamped", n, stamped)
				case errors.Is(err, sched.ErrClosed):
					if n != 0 {
						fail("EnqueueBatch refused at Close accepted %d", n)
					}
				case err != nil && (limit == 0 || !errors.Is(err, sched.ErrShedding)), err == nil && n != size:
					fail("EnqueueBatch: n=%d of %d, err=%v", n, size, err)
				default:
					for _, p := range batch {
						if p.Arrival > 0 {
							accepted[p.Flow]++
						} else {
							shed[p.Flow]++
						}
					}
				}
				if id == 1 {
					seq[spare]++
					if r.Enqueue(&sched.Packet{Flow: spare, Seq: seq[spare], Length: 1}) == nil {
						accepted[flows]++
					}
				}
			}
		}
	}
	consumer := func() {
		buf := make([]*sched.Packet, 3)
		for {
			for s := 0; s < nShards; s++ {
				n := r.DequeueBatch(s, buf[:1+len(out)%3])
				for _, p := range buf[:n] {
					out = append(out, departure{p.Flow, s, p.Seq})
				}
			}
			n := r.Len()
			if limit > 0 && n > limit*nShards {
				fail("Len %d over the limit of %d per shard", n, limit)
			}
			if prodDone == 2 && n == 0 {
				return
			}
		}
	}
	control := func() {
		crng := rand.New(rand.NewSource(seed*13 + 5))
		for k := 0; k < 6; k++ {
			if k == closeAt {
				if err := r.Close(); err != nil {
					fail("Close: %v", err)
				}
				closed = true
				return
			}
			f := crng.Intn(flows)
			if err := r.MigrateFlow(f, crng.Intn(nShards)); err != nil && !errors.Is(err, sched.ErrFlowDraining) {
				fail("MigrateFlow(%d): %v", f, err)
			}
			// The spare may still drain on its home shard from an earlier
			// registration, which refuses it there.
			if err := r.AddFlow(spare, 1); err != nil && !errors.Is(err, sched.ErrFlowDraining) {
				fail("AddFlow(spare): %v", err)
			}
			if err := r.MigrateFlow(spare, crng.Intn(nShards)); err != nil &&
				!errors.Is(err, sched.ErrFlowDraining) && !errors.Is(err, sched.ErrUnknownFlow) {
				fail("MigrateFlow(spare): %v", err)
			}
			if err := r.RemoveFlow(spare); err != nil && !errors.Is(err, sched.ErrFlowBusy) && !errors.Is(err, sched.ErrUnknownFlow) {
				fail("RemoveFlow(spare): %v", err)
			}
			if a := r.FlowAccount(f); limit == 0 && a.Shed != 0 {
				fail("flow %d: %d shed with no queue limit", f, a.Shed)
			}
		}
	}

	x := &explorer{}
	r.y.hook = x.yield
	x.run(seed, producer(0), producer(1), consumer, control)
	r.y.hook = nil
	if x.over.Load() {
		return x.trace, x.steps, fmt.Errorf("no end after %d steps", maxSteps)
	}
	if violation != nil {
		return x.trace, x.steps, violation
	}

	// No packet stranded: the consumer stopped at Len 0 with the producers
	// done, so every ingress is empty and every accepted packet left.
	for s, sh := range r.shards {
		if sh.in.n != 0 {
			return x.trace, x.steps, fmt.Errorf("shard %d: %d packets stranded in the ingress", s, sh.in.n)
		}
	}
	var dequeued [flows + 1]int64
	last := map[[2]int]int64{}
	for _, d := range out {
		dequeued[idx(d.flow)]++
		k := [2]int{d.flow, d.shard}
		if d.seq <= last[k] {
			return x.trace, x.steps, fmt.Errorf("flow %d: seq %d left shard %d after seq %d", d.flow, d.seq, d.shard, last[k])
		}
		last[k] = d.seq
	}
	if n := r.Len(); n != 0 {
		return x.trace, x.steps, fmt.Errorf("Len %d after the consumer stopped", n)
	}
	for f := 0; f <= flows; f++ {
		if dequeued[f] != accepted[f] {
			return x.trace, x.steps, fmt.Errorf("flow index %d: %d accepted, %d dequeued", f, accepted[f], dequeued[f])
		}
		if f == flows {
			continue // the spare's ledgers go with each removal
		}
		if a := r.FlowAccount(f); a.Enqueued != accepted[f] || a.Dequeued != dequeued[f] || a.Shed != shed[f] {
			return x.trace, x.steps, fmt.Errorf("flow %d: ledger %+v, %d accepted, %d dequeued, %d shed", f, a, accepted[f], dequeued[f], shed[f])
		}
	}
	for _, k := range shed {
		shedTotal += k
	}
	return x.trace, x.steps, nil
}

// shedTotal counts the packets the bounded seeds shed, for the test's log.
var shedTotal int64

// TestInterleavings runs producers, a consumer and a control goroutine
// (migrations, spare-flow churn, ledger reads, Close) under 512 seeded
// schedules and checks after each that the ledgers balance (enqueued =
// dequeued + Len, exactly, and every accepted packet is counted once),
// that each flow's packets leave each shard in push order, and that no
// packet is left in an ingress. A failing seed replays with
// -args -interleave.seed=N; the test also reruns a few seeds and requires
// the same schedule.
func TestInterleavings(t *testing.T) {
	seeds := make([]int64, 512)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	if *interleaveSeed >= 0 {
		seeds = []int64{*interleaveSeed}
	}
	total := 0
	for _, seed := range seeds {
		trace, steps, err := interleaving(seed)
		if err != nil {
			t.Fatalf("seed %d (%d steps): %v\nreplay: go test -tags schedassert -run TestInterleavings ./internal/rt -args -interleave.seed=%d", seed, steps, err, seed)
		}
		total += steps
		if seed < 4 {
			again, steps2, err := interleaving(seed)
			if again != trace || steps2 != steps || err != nil {
				t.Fatalf("seed %d does not replay: trace %x/%x, steps %d/%d, err %v", seed, trace, again, steps, steps2, err)
			}
		}
	}
	t.Logf("%d seeds, %d yields, %d packets shed", len(seeds), total, shedTotal)
}
