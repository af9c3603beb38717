package rt_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	_ "repro/internal/core"
	"repro/internal/rt"
	"repro/internal/sched"
)

func mustRuntime(t *testing.T, name string, opts ...sched.Option) *rt.Runtime {
	t.Helper()
	r, err := rt.New(name, opts...)
	if err != nil {
		t.Fatalf("rt.New(%q): %v", name, err)
	}
	return r
}

func TestRuntimeBasics(t *testing.T) {
	clock := &sched.ManualClock{}
	r := mustRuntime(t, "sfq", sched.WithClock(clock), sched.WithShards(1))
	if r.Name() != "sfq" || r.Shards() != 1 {
		t.Fatalf("Name/Shards = %q/%d", r.Name(), r.Shards())
	}
	if !r.PoolSafe() {
		t.Fatal("sfq runtime should be pool-safe")
	}
	if err := r.Enqueue(&sched.Packet{Flow: 7, Length: 10}); !errors.Is(err, sched.ErrUnknownFlow) {
		t.Fatalf("enqueue unregistered flow: %v", err)
	}
	if err := r.AddFlow(7, 1); err != nil {
		t.Fatal(err)
	}
	clock.Set(1)
	p := &sched.Packet{Flow: 7, Length: 10}
	if err := r.Enqueue(p); err != nil {
		t.Fatal(err)
	}
	if p.Arrival != 1 {
		t.Fatalf("Arrival = %v, want clock reading 1", p.Arrival)
	}
	if r.Len() != 1 || r.QueuedBytes(7) != 10 {
		t.Fatalf("Len/QueuedBytes = %d/%v", r.Len(), r.QueuedBytes(7))
	}
	if err := r.RemoveFlow(7); !errors.Is(err, sched.ErrFlowBusy) {
		t.Fatalf("remove backlogged flow: %v", err)
	}
	got, ok := r.Dequeue()
	if !ok || got != p {
		t.Fatalf("Dequeue = %v/%v", got, ok)
	}
	acct := r.FlowAccount(7)
	if acct.Enqueued != 1 || acct.Dequeued != 1 || acct.EnqueuedBytes != 10 || acct.DequeuedBytes != 10 {
		t.Fatalf("ledger %+v", acct)
	}
	if err := r.RemoveFlow(7); err != nil {
		t.Fatal(err)
	}

	if _, err := rt.New("sfq", sched.WithShards(-1)); !errors.Is(err, sched.ErrBadConfig) {
		t.Fatalf("negative shards: %v", err)
	}
	if _, err := rt.New("no-such-discipline"); !errors.Is(err, sched.ErrBadConfig) {
		t.Fatalf("unknown discipline: %v", err)
	}
}

// TestShardedConservation is the differential pin of satellite 4: for every
// shard count from 1 to GOMAXPROCS, concurrent producers and per-shard
// consumers hammer the runtime and per-flow byte conservation must hold
// exactly — every offered byte is queued, shed with a counted refusal, or
// still in flight, and every queued byte reappears on dequeue. Run under
// -race this also exercises the lock-free shard-assignment fast path.
func TestShardedConservation(t *testing.T) {
	// Cover 1..GOMAXPROCS shards, but always at least 4 — on a small
	// machine the goroutines time-slice, which still exercises every
	// cross-shard interleaving the race detector can see.
	maxShards := runtime.GOMAXPROCS(0)
	if maxShards < 4 {
		maxShards = 4
	}
	if maxShards > 8 {
		maxShards = 8
	}
	for shards := 1; shards <= maxShards; shards++ {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			r := mustRuntime(t, "sfq", sched.WithShards(shards), sched.WithClock(rt.WallClock()))
			const flows = 12
			perFlow := 400
			if testing.Short() {
				perFlow = 100
			}
			for f := 0; f < flows; f++ {
				if err := r.AddFlow(f, float64(1+f%3)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			var sent [flows]int64
			for f := 0; f < flows; f++ {
				wg.Add(1)
				go func(f int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(f)))
					batch := make([]*sched.Packet, 0, 8)
					for i := 0; i < perFlow; {
						batch = batch[:0]
						n := 1 + rng.Intn(8)
						if i+n > perFlow {
							n = perFlow - i
						}
						for j := 0; j < n; j++ {
							batch = append(batch, &sched.Packet{Flow: f, Seq: int64(i + j), Length: float64(1 + rng.Intn(100))})
						}
						acc, err := r.EnqueueBatch(batch)
						if err != nil {
							t.Errorf("flow %d: batch enqueue: %v", f, err)
							return
						}
						sent[f] += int64(acc)
						i += n
					}
				}(f)
			}
			// Per-shard consumers drain concurrently with the producers.
			done := make(chan struct{})
			var cg sync.WaitGroup
			for s := 0; s < shards; s++ {
				cg.Add(1)
				go func(s int) {
					defer cg.Done()
					buf := make([]*sched.Packet, 16)
					for {
						n := r.DequeueBatch(s, buf)
						if n == 0 {
							select {
							case <-done:
								// Producers finished: one final sweep.
								for r.DequeueBatch(s, buf) > 0 {
								}
								return
							default:
							}
						}
					}
				}(s)
			}
			wg.Wait()
			close(done)
			cg.Wait()
			if n := r.Len(); n != 0 {
				t.Fatalf("%d packets stranded", n)
			}
			for f := 0; f < flows; f++ {
				acct := r.FlowAccount(f)
				if acct.Enqueued != sent[f] {
					t.Errorf("flow %d: ledger says %d enqueued, producer sent %d", f, acct.Enqueued, sent[f])
				}
				if acct.Enqueued != acct.Dequeued {
					t.Errorf("flow %d: %d enqueued != %d dequeued with empty queue", f, acct.Enqueued, acct.Dequeued)
				}
				if acct.EnqueuedBytes != acct.DequeuedBytes {
					t.Errorf("flow %d: %v bytes in != %v bytes out", f, acct.EnqueuedBytes, acct.DequeuedBytes)
				}
				if acct.Shed != 0 {
					t.Errorf("flow %d: unexpected sheds %d (no limit set)", f, acct.Shed)
				}
			}
		})
	}
}

// TestShedAccounting pins the bounded-queue contract: refusals are loud
// (ErrShedding) and counted, and offered = enqueued + shed exactly.
func TestShedAccounting(t *testing.T) {
	clock := &sched.ManualClock{}
	r := mustRuntime(t, "sfq", sched.WithClock(clock))
	r.SetQueueLimit(3)
	if err := r.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	offered, accepted, shed := 0, 0, 0
	for i := 0; i < 10; i++ {
		offered++
		err := r.Enqueue(&sched.Packet{Flow: 1, Seq: int64(i), Length: 5})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, sched.ErrShedding):
			shed++
		default:
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if accepted != 3 || shed != 7 {
		t.Fatalf("accepted/shed = %d/%d, want 3/7", accepted, shed)
	}
	acct := r.FlowAccount(1)
	if int(acct.Enqueued) != accepted || int(acct.Shed) != shed {
		t.Fatalf("ledger %+v disagrees with caller counts %d/%d", acct, accepted, shed)
	}
	if acct.ShedBytes != float64(shed)*5 {
		t.Fatalf("ShedBytes = %v", acct.ShedBytes)
	}
	// Draining frees capacity again.
	if _, ok := r.Dequeue(); !ok {
		t.Fatal("dequeue failed")
	}
	if err := r.Enqueue(&sched.Packet{Flow: 1, Seq: 99, Length: 5}); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
	r.SetQueueLimit(0)
	if err := r.Enqueue(&sched.Packet{Flow: 1, Seq: 100, Length: 5}); err != nil {
		t.Fatalf("enqueue after limit removed: %v", err)
	}
}

// TestZeroAllocSteadyState pins the data path's allocation budget: with a
// pool-safe discipline and the caller reusing dequeued packets, batched
// enqueue/dequeue allocates nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	clock := &sched.ManualClock{}
	r := mustRuntime(t, "sfq", sched.WithClock(clock))
	for f := 0; f < 4; f++ {
		if err := r.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	const batch = 16
	pkts := make([]*sched.Packet, batch)
	buf := make([]*sched.Packet, batch)
	for i := range pkts {
		pkts[i] = &sched.Packet{Flow: i % 4, Length: 100}
	}
	// Warm up once (lazy map/heap growth), then measure.
	step := func() {
		clock.Advance(1)
		if n, err := r.EnqueueBatch(pkts); err != nil || n != batch {
			t.Fatalf("enqueue batch: n=%d err=%v", n, err)
		}
		if n := r.DequeueBatch(0, buf); n != batch {
			t.Fatalf("dequeue batch: n=%d", n)
		}
		copy(pkts, buf)
	}
	step()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady state allocates %v allocs per batch, want 0", avg)
	}
}

func TestMigrateFlow(t *testing.T) {
	clock := &sched.ManualClock{}
	r := mustRuntime(t, "sfq", sched.WithShards(4), sched.WithClock(clock))
	if err := r.AddFlow(1, 2); err != nil {
		t.Fatal(err)
	}
	home := r.ShardOf(1)
	if got, err := r.FlowShard(1); err != nil || got != home {
		t.Fatalf("FlowShard = %d/%v, want %d", got, err, home)
	}

	// Error cases first: bad destination, unknown flow.
	if err := r.MigrateFlow(1, 99); !errors.Is(err, sched.ErrBadConfig) {
		t.Fatalf("out-of-range dst: %v", err)
	}
	if err := r.MigrateFlow(42, 0); !errors.Is(err, sched.ErrUnknownFlow) {
		t.Fatalf("unknown flow: %v", err)
	}

	// Idle migration moves the assignment immediately.
	dst := (home + 1) % 4
	if err := r.MigrateFlow(1, dst); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.FlowShard(1); got != dst {
		t.Fatalf("after idle migrate: shard %d, want %d", got, dst)
	}
	if err := r.MigrateFlow(1, dst); err != nil {
		t.Fatalf("self-migration should be a no-op: %v", err)
	}

	// Backlogged migration: arrivals switch shards at once, the old shard
	// drains its backlog and auto-unregisters the flow.
	clock.Set(1)
	old := &sched.Packet{Flow: 1, Seq: 0, Length: 10}
	if err := r.Enqueue(old); err != nil {
		t.Fatal(err)
	}
	dst2 := (dst + 1) % 4
	if err := r.MigrateFlow(1, dst2); err != nil {
		t.Fatalf("backlogged migrate: %v", err)
	}
	if got, _ := r.FlowShard(1); got != dst2 {
		t.Fatalf("after backlogged migrate: shard %d, want %d", got, dst2)
	}
	fresh := &sched.Packet{Flow: 1, Seq: 1, Length: 20}
	if err := r.Enqueue(fresh); err != nil {
		t.Fatal(err)
	}
	// Migrating back onto the still-draining source shard is refused.
	if err := r.MigrateFlow(1, dst); !errors.Is(err, sched.ErrFlowDraining) {
		t.Fatalf("migrate onto draining shard: %v", err)
	}
	if p, ok := r.DequeueShard(dst); !ok || p != old {
		t.Fatalf("old shard backlog: %v/%v", p, ok)
	}
	if p, ok := r.DequeueShard(dst2); !ok || p != fresh {
		t.Fatalf("new shard arrival: %v/%v", p, ok)
	}
	// Drained now: the old shard accepted the flow back.
	if err := r.MigrateFlow(1, dst); err != nil {
		t.Fatalf("migrate after drain: %v", err)
	}
	// Conservation held across the migration.
	acct := r.FlowAccount(1)
	if acct.Enqueued != 2 || acct.Dequeued != 2 || acct.EnqueuedBytes != 30 || acct.DequeuedBytes != 30 {
		t.Fatalf("ledger across migration %+v", acct)
	}
}

func TestRuntimeClose(t *testing.T) {
	clock := &sched.ManualClock{}
	r := mustRuntime(t, "sfq", sched.WithClock(clock))
	if err := r.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Enqueue(&sched.Packet{Flow: 1, Length: 10}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if err := r.Enqueue(&sched.Packet{Flow: 1, Length: 10}); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
	if n, err := r.EnqueueBatch([]*sched.Packet{{Flow: 1, Length: 10}}); n != 0 || !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("batch enqueue after close: n=%d err=%v", n, err)
	}
	if err := r.AddFlow(2, 1); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("add flow after close: %v", err)
	}
	if err := r.MigrateFlow(1, 0); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("migrate after close: %v", err)
	}
	// The backlog stays dequeueable so workers drain it.
	if _, ok := r.Dequeue(); !ok {
		t.Fatal("backlog not dequeueable after close")
	}
	if err := r.Close(); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

// TestRuntimeMonotoneClock pins the clamp: a clock that jumps backwards
// (NTP step, coarse timer) must never surface ErrTimeWentBack from the
// disciplines — the shard clamps time monotone instead.
func TestRuntimeMonotoneClock(t *testing.T) {
	clock := &sched.ManualClock{}
	r := mustRuntime(t, "sfq", sched.WithClock(clock))
	if err := r.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	clock.Set(10)
	if err := r.Enqueue(&sched.Packet{Flow: 1, Seq: 0, Length: 1}); err != nil {
		t.Fatal(err)
	}
	clock.Set(3) // time goes backwards
	p := &sched.Packet{Flow: 1, Seq: 1, Length: 1}
	if err := r.Enqueue(p); err != nil {
		t.Fatalf("enqueue after clock regression: %v", err)
	}
	if p.Arrival != 10 {
		t.Fatalf("Arrival = %v, want clamped 10", p.Arrival)
	}
	if _, ok := r.Dequeue(); !ok {
		t.Fatal("dequeue after clock regression")
	}
}

// flowsOn returns the first n flow ids that hash to each of r's shards.
func flowsOn(r *rt.Runtime, n int) [][]int {
	out := make([][]int, r.Shards())
	for f, full := 0, 0; full < r.Shards(); f++ {
		s := r.ShardOf(f)
		if len(out[s]) < n {
			out[s] = append(out[s], f)
			if len(out[s]) == n {
				full++
			}
		}
	}
	return out
}

func TestEnqueueBatchPartialFailure(t *testing.T) {
	clock := &sched.ManualClock{}
	r := mustRuntime(t, "sfq", sched.WithShards(2), sched.WithClock(clock))
	if err := r.AddFlow(1, 1); err != nil {
		t.Fatal(err)
	}
	batch := []*sched.Packet{
		{Flow: 1, Seq: 0, Length: 5},
		{Flow: 9, Seq: 0, Length: 5}, // never registered
		{Flow: 1, Seq: 1, Length: 5},
	}
	n, err := r.EnqueueBatch(batch)
	if n != 2 {
		t.Fatalf("accepted %d, want 2 (failure mid-batch must not discard the rest)", n)
	}
	if !errors.Is(err, sched.ErrUnknownFlow) {
		t.Fatalf("first error: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	// A batch larger than the stack scratch takes the heap-resolve path.
	big := make([]*sched.Packet, 129)
	for i := range big {
		big[i] = &sched.Packet{Flow: 1, Seq: int64(i + 2), Length: 1}
	}
	if n, err := r.EnqueueBatch(big); err != nil || n != len(big) {
		t.Fatalf("large batch: n=%d err=%v", n, err)
	}

	// The batch is served shard by shard, but the error returned is still
	// that of the lowest-indexed failing packet. Shard a is served first
	// (its packet leads each batch) and its first packet fills it; shard b
	// is full already, and "?" is an unregistered flow.
	for _, tc := range []struct {
		batch   string
		want    error
		shedOnB bool
	}{
		{"a?b", sched.ErrUnknownFlow, false}, // unknown flow before a shed on b
		{"ab?a", sched.ErrShedding, true},    // shed on b before a shed on a
	} {
		r := mustRuntime(t, "sfq", sched.WithShards(2), sched.WithClock(clock))
		on := flowsOn(r, 1)
		flow := map[rune]int{'a': on[0][0], 'b': on[1][0], '?': 99}
		for _, f := range on {
			if err := r.AddFlow(f[0], 1); err != nil {
				t.Fatal(err)
			}
		}
		r.SetQueueLimit(2)
		prefill := []*sched.Packet{{Flow: flow['a'], Length: 1}, {Flow: flow['b'], Length: 1}, {Flow: flow['b'], Length: 1}}
		if n, err := r.EnqueueBatch(prefill); n != 3 || err != nil {
			t.Fatalf("prefill: n=%d err=%v", n, err)
		}
		var batch []*sched.Packet
		for i, c := range tc.batch {
			batch = append(batch, &sched.Packet{Flow: flow[c], Seq: int64(i), Length: 1})
		}
		n, err := r.EnqueueBatch(batch)
		if n != 1 || !errors.Is(err, tc.want) {
			t.Fatalf("%s: n=%d err=%v, want n=1 and %v", tc.batch, n, err, tc.want)
		}
		if b := fmt.Sprintf("shard %d ", r.ShardOf(flow['b'])); tc.shedOnB && !strings.Contains(err.Error(), b) {
			t.Fatalf("%s: err %q, want the shed on %q", tc.batch, err, b)
		}
	}
}

// countingClock returns the number of times Now has been called, so every
// reading is distinct and the count is the number of clock reads.
type countingClock struct{ reads int }

func (c *countingClock) Now() float64 { c.reads++; return float64(c.reads) }

// TestBatchClockContract pins the batched path's documented cost: one
// clock read per shard an EnqueueBatch touches and one per DequeueBatch
// call, so every packet a batch puts on one shard carries one Arrival,
// while each flow's packets still leave in batch order.
func TestBatchClockContract(t *testing.T) {
	clock := &countingClock{}
	r := mustRuntime(t, "sfq", sched.WithShards(2), sched.WithClock(clock))
	on := flowsOn(r, 4)
	var flows []int
	for i := 0; i < 4; i++ {
		flows = append(flows, on[0][i], on[1][i])
	}
	for _, f := range flows {
		if err := r.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	var batch []*sched.Packet
	for seq := 0; seq < 4; seq++ {
		for _, f := range flows {
			batch = append(batch, &sched.Packet{Flow: f, Seq: int64(seq), Length: float64(1 + f%3)})
		}
	}
	clock.reads = 0
	if n, err := r.EnqueueBatch(batch); n != len(batch) || err != nil {
		t.Fatalf("EnqueueBatch: n=%d err=%v", n, err)
	}
	if clock.reads != 2 {
		t.Fatalf("EnqueueBatch over 2 shards read the clock %d times, want 2", clock.reads)
	}
	arrival := map[int]float64{}
	for _, p := range batch {
		s := r.ShardOf(p.Flow)
		if a, ok := arrival[s]; ok && a != p.Arrival {
			t.Fatalf("shard %d: arrivals %v and %v in one batch", s, a, p.Arrival)
		}
		arrival[s] = p.Arrival
	}
	buf := make([]*sched.Packet, len(batch))
	next := map[int]int64{}
	for s := 0; s < 2; s++ {
		for _, size := range []int{3, len(buf), len(buf)} { // the last call finds the shard idle
			clock.reads = 0
			n := r.DequeueBatch(s, buf[:size])
			if clock.reads != 1 {
				t.Fatalf("DequeueBatch(%d) of %d packets read the clock %d times, want 1", s, n, clock.reads)
			}
			for _, p := range buf[:n] {
				if p.Seq != next[p.Flow] {
					t.Fatalf("flow %d: Seq %d out, want %d", p.Flow, p.Seq, next[p.Flow])
				}
				next[p.Flow]++
			}
		}
	}
	for _, f := range flows {
		if next[f] != 4 {
			t.Fatalf("flow %d: %d packets out, want 4", f, next[f])
		}
	}
}

// scriptedClock replays its readings in a loop.
type scriptedClock struct {
	script []float64
	i      int
}

func (c *scriptedClock) Now() float64 {
	t := c.script[c.i%len(c.script)]
	c.i++
	return t
}

// shardTimes checks, per shard, that the times the runtime hands its
// discipline (arrival stamps and dequeue times alike) never decrease.
type shardTimes struct {
	r    *rt.Runtime
	t    *testing.T
	last map[int]float64
}

func (st *shardTimes) see(now float64, p *sched.Packet) {
	s, _ := st.r.FlowShard(p.Flow)
	if last, ok := st.last[s]; ok && now < last {
		st.t.Fatalf("shard %d: time %v after %v", s, now, last)
	}
	st.last[s] = now
}

func (st *shardTimes) OnEnqueue(now float64, p *sched.Packet) {
	if p.Arrival != now {
		st.t.Fatalf("flow %d: Arrival %v, enqueued at %v", p.Flow, p.Arrival, now)
	}
	st.see(now, p)
}
func (st *shardTimes) OnDequeue(now float64, p *sched.Packet) { st.see(now, p) }
func (st *shardTimes) OnVirtualTime(float64, float64)         {}

// TestBatchHostileClock drives the batched path with a clock that steps
// backwards between batches: every shard's times must stay monotone and no
// discipline may see ErrTimeWentBack, on EnqueueBatch or DequeueBatch.
func TestBatchHostileClock(t *testing.T) {
	clock := &scriptedClock{script: []float64{5, 2, 9, 1, 9, 14, 3, 0, 20, 19}}
	r := mustRuntime(t, "sfq", sched.WithShards(2), sched.WithClock(clock))
	st := &shardTimes{r: r, t: t, last: map[int]float64{}}
	r.SetProbe(st)
	on := flowsOn(r, 2)
	flows := []int{on[0][0], on[1][0], on[0][1], on[1][1]}
	for _, f := range flows {
		if err := r.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]*sched.Packet, 3)
	sent, got := 0, 0
	for round := 0; round < 40; round++ {
		batch := make([]*sched.Packet, 1+round%5)
		for i := range batch {
			batch[i] = &sched.Packet{Flow: flows[(round+i)%len(flows)], Seq: int64(round), Length: 1}
		}
		n, err := r.EnqueueBatch(batch)
		if err != nil || n != len(batch) {
			t.Fatalf("round %d: EnqueueBatch n=%d err=%v", round, n, err)
		}
		sent += n
		got += r.DequeueBatch(round%2, buf)
	}
	for s := 0; s < 2; s++ {
		for {
			n := r.DequeueBatch(s, buf)
			if n == 0 {
				break
			}
			got += n
		}
	}
	if got != sent {
		t.Fatalf("sent %d, dequeued %d", sent, got)
	}
}

// TestEnqueueBatchConcurrentFlowTableWriters is the lock-order regression
// pin: EnqueueBatch must never hold a shard mutex while waiting on the
// flow-table lock, or it deadlocks against AddFlow/RemoveFlow/MigrateFlow
// (which take the table lock first, then shard mutexes). Producers push
// batches spanning all shards — so a shard lock is held between
// consecutive packets — while writers churn the flow table; a watchdog
// fails loudly with stacks instead of hanging the suite if the inversion
// ever comes back.
func TestEnqueueBatchConcurrentFlowTableWriters(t *testing.T) {
	r := mustRuntime(t, "sfq", sched.WithShards(4), sched.WithClock(rt.WallClock()))
	const flows = 8
	for f := 0; f < flows; f++ {
		if err := r.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	r.SetQueueLimit(1 << 14)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]*sched.Packet, 2*flows)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]*sched.Packet, flows)
				for f := range batch {
					batch[f] = &sched.Packet{Flow: f, Length: 1}
				}
				_, _ = r.EnqueueBatch(batch)
				for s := 0; s < r.Shards(); s++ {
					r.DequeueBatch(s, buf)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.MigrateFlow(i%flows, i%r.Shards())
			extra := flows + i%4
			_ = r.AddFlow(extra, 1)
			_ = r.RemoveFlow(extra)
		}
	}()
	dur := 300 * time.Millisecond
	if testing.Short() {
		dur = 50 * time.Millisecond
	}
	time.Sleep(dur)
	close(stop)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("deadlock: EnqueueBatch vs flow-table writers\n%s", buf[:runtime.Stack(buf, true)])
	}
}
