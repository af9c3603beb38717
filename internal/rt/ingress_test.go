package rt_test

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/core"
	_ "repro/internal/pifo"
	"repro/internal/rt"
	"repro/internal/sched"
)

// TestIngressFullDrainsInline: a batch larger than a shard's ingress is
// accepted whole, with one clock read, by a producer that drains the full
// ingress itself; the flow's packets still leave in batch order and the
// ledger counts each once.
func TestIngressFullDrainsInline(t *testing.T) {
	clock := &countingClock{}
	r := mustRuntime(t, "sfq", sched.WithClock(clock))
	for f := 0; f < 3; f++ {
		if err := r.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	const size = 1000
	batch := make([]*sched.Packet, size)
	for i := range batch {
		batch[i] = &sched.Packet{Flow: i % 3, Seq: int64(i), Length: 1}
	}
	clock.reads = 0
	if n, err := r.EnqueueBatch(batch); n != size || err != nil {
		t.Fatalf("EnqueueBatch: n=%d err=%v", n, err)
	}
	if clock.reads != 1 {
		t.Fatalf("EnqueueBatch read the clock %d times, want 1", clock.reads)
	}
	if n := r.Len(); n != size {
		t.Fatalf("Len = %d, want %d", n, size)
	}
	last := map[int]int64{0: -1, 1: -1, 2: -1}
	buf := make([]*sched.Packet, 64)
	for got := 0; got < size; {
		n := r.DequeueBatch(0, buf)
		if n == 0 {
			t.Fatalf("ran dry after %d", got)
		}
		for _, p := range buf[:n] {
			if p.Seq <= last[p.Flow] {
				t.Fatalf("flow %d: seq %d after %d", p.Flow, p.Seq, last[p.Flow])
			}
			last[p.Flow] = p.Seq
		}
		got += n
	}
	for f := 0; f < 3; f++ {
		if a := r.FlowAccount(f); a.Enqueued != size/3+int64(btoi(f < size%3)) || a.Enqueued != a.Dequeued || a.Shed != 0 {
			t.Fatalf("flow %d: ledger %+v", f, a)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDrainAcceptsWhatPushAccepts: for every registered discipline, a
// packet the runtime's push accepts (a registered flow, a finite positive
// length, whatever its rate, slack or arrival clock) is one the
// discipline's Enqueue accepts when the shard drains it. A refusal there
// would be a packet the caller was told was queued and the ledger counts
// as shed.
func TestDrainAcceptsWhatPushAccepts(t *testing.T) {
	lengths := []float64{math.SmallestNonzeroFloat64, 1e-300, 1, 1500, 1e300, math.MaxFloat64}
	extras := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e-300, 1e300}
	for _, row := range registryRows() {
		t.Run(row, func(t *testing.T) {
			name := row
			if n, ok := retiredNames[row]; ok {
				name = n
			}
			const shards = 2
			opts := []sched.Option{sched.WithClock(&scriptedClock{script: []float64{5, 2, 9, 1, 9, 14, 3, 0}}), sched.WithShards(shards)}
			switch name {
			case "wfq", "fqs":
				opts = append(opts, sched.WithAssumedCapacity(1000))
			}
			r := mustRuntime(t, name, opts...)
			const flows = 4
			for f := 0; f < flows; f++ {
				if err := r.AddFlow(f, float64(1+f)); err != nil {
					t.Fatal(err)
				}
			}
			var batch []*sched.Packet
			for i, l := range lengths {
				for j, x := range extras {
					batch = append(batch, &sched.Packet{Flow: (i + j) % flows, Seq: int64(len(batch)), Length: l, Rate: x, Slack: extras[(i+j+1)%len(extras)]})
				}
			}
			half := len(batch) / 2
			if n, err := r.EnqueueBatch(batch[:half]); n != half || err != nil {
				t.Fatalf("EnqueueBatch: n=%d err=%v", n, err)
			}
			// Move a backlogged flow and push the rest: the old shard drains
			// what it holds while the new one takes the flow's arrivals.
			if err := r.MigrateFlow(0, shards-1-r.ShardOf(0)); err != nil && !errors.Is(err, sched.ErrFlowBusy) {
				t.Fatal(err)
			}
			for _, p := range batch[half:] {
				if err := r.Enqueue(p); err != nil {
					t.Fatalf("Enqueue(%+v): %v", *p, err)
				}
			}
			if n := r.Len(); n != len(batch) {
				t.Fatalf("Len = %d after %d accepted", n, len(batch))
			}
			var enq int64
			for f := 0; f < flows; f++ {
				a := r.FlowAccount(f)
				if a.Shed != 0 {
					t.Fatalf("flow %d: the drain refused %d accepted packets", f, a.Shed)
				}
				enq += a.Enqueued
			}
			if enq != int64(len(batch)) {
				t.Fatalf("ledgers count %d enqueued, %d accepted", enq, len(batch))
			}
		})
	}
}

// TestCloseRacesEnqueueBatch: producers push batches across both shards
// while consumers drain them and the runtime is closed under them. Every
// packet a batch accepted is dequeued and counted once; a batch refused at
// Close accepts none of its packets, and a batch started after Close
// returned is refused. Run it under -race.
func TestCloseRacesEnqueueBatch(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := mustRuntime(t, "sfq", sched.WithShards(2), sched.WithClock(rt.WallClock()))
		const flows, producers = 8, 3
		for f := 0; f < flows; f++ {
			if err := r.AddFlow(f, float64(1+f%3)); err != nil {
				t.Fatal(err)
			}
		}
		var closed atomic.Bool
		var accepted [producers][flows]int64
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					batch := make([]*sched.Packet, 1+i%9)
					for j := range batch {
						batch[j] = &sched.Packet{Flow: (w + i + j) % flows, Length: 1}
					}
					after := closed.Load()
					n, err := r.EnqueueBatch(batch)
					if errors.Is(err, sched.ErrClosed) {
						if n != 0 {
							t.Errorf("batch refused at Close accepted %d packets", n)
						}
						return
					}
					if after || err != nil || n != len(batch) {
						t.Errorf("batch after Close=%v: n=%d of %d, err=%v", after, n, len(batch), err)
						return
					}
					for _, p := range batch {
						accepted[w][p.Flow]++
					}
				}
			}()
		}
		var dequeued [2][flows]int64
		stop := make(chan struct{})
		var cg sync.WaitGroup
		for s := 0; s < 2; s++ {
			cg.Add(1)
			go func() {
				defer cg.Done()
				buf := make([]*sched.Packet, 16)
				for {
					n := r.DequeueBatch(s, buf)
					for _, p := range buf[:n] {
						dequeued[s][p.Flow]++
					}
					if n == 0 {
						select {
						case <-stop:
							return
						default:
						}
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		if n, err := r.EnqueueBatch([]*sched.Packet{{Flow: 0, Length: 1}}); n != 0 || !errors.Is(err, sched.ErrClosed) {
			t.Fatalf("EnqueueBatch after Close: n=%d err=%v", n, err)
		}
		wg.Wait()
		close(stop)
		cg.Wait()
		for s := 0; s < 2; s++ { // what the consumers left behind
			for buf := make([]*sched.Packet, 16); ; {
				n := r.DequeueBatch(s, buf)
				if n == 0 {
					break
				}
				for _, p := range buf[:n] {
					dequeued[s][p.Flow]++
				}
			}
		}
		for f := 0; f < flows; f++ {
			var acc, deq int64
			for w := range accepted {
				acc += accepted[w][f]
			}
			deq = dequeued[0][f] + dequeued[1][f]
			a := r.FlowAccount(f)
			if deq != acc || a.Enqueued != acc || a.Dequeued != acc || a.Shed != 0 {
				t.Fatalf("round %d flow %d: %d accepted, %d dequeued, ledger %+v", round, f, acc, deq, a)
			}
		}
	}
}

// TestMigrationRacesBatchedPath: while one producer per flow group pushes
// batches and a consumer per shard drains, flows migrate back and forth,
// the producers going on until at least 100 migrations have succeeded.
// Every accepted packet is dequeued once, the ledgers balance, and each
// flow's packets leave each shard in the order they were pushed. Run it
// under -race.
func TestMigrationRacesBatchedPath(t *testing.T) {
	const shards, flows, producers, batches = 3, 9, 3, 400
	r := mustRuntime(t, "sfq", sched.WithShards(shards), sched.WithClock(rt.WallClock()))
	for f := 0; f < flows; f++ {
		if err := r.AddFlow(f, float64(1+f%4)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var sent [flows]int64
	var migrations atomic.Int64
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() { // producer w owns flows w, w+producers, ...
			defer wg.Done()
			for i := 0; i < batches || migrations.Load() < 100 && i < 100*batches; i++ {
				batch := make([]*sched.Packet, 1+i%7)
				for j := range batch {
					f := w + producers*((i+j)%(flows/producers))
					sent[f]++
					batch[j] = &sched.Packet{Flow: f, Seq: sent[f], Length: float64(1 + j)}
				}
				if n, err := r.EnqueueBatch(batch); n != len(batch) || err != nil {
					t.Errorf("EnqueueBatch: n=%d err=%v", n, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var mg sync.WaitGroup
	mg.Add(1)
	go func() {
		defer mg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := r.MigrateFlow(i%flows, (i/flows)%shards); err == nil {
				migrations.Add(1)
			} else if !errors.Is(err, sched.ErrFlowDraining) {
				t.Errorf("MigrateFlow: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	var out [shards][]*sched.Packet
	var cg sync.WaitGroup
	for s := 0; s < shards; s++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			buf := make([]*sched.Packet, 8)
			for {
				n := r.DequeueBatch(s, buf)
				out[s] = append(out[s], buf[:n]...)
				if n == 0 {
					select {
					case <-done:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	mg.Wait()
	cg.Wait()
	for s := 0; s < shards; s++ {
		out[s] = append(out[s], drainShard(r, s)...)
	}
	var got [flows]int64
	for s := range out {
		last := map[int]int64{}
		for _, p := range out[s] {
			if p.Seq <= last[p.Flow] {
				t.Fatalf("shard %d: flow %d seq %d after %d", s, p.Flow, p.Seq, last[p.Flow])
			}
			last[p.Flow] = p.Seq
			got[p.Flow]++
		}
	}
	for f := 0; f < flows; f++ {
		if a := r.FlowAccount(f); got[f] != sent[f] || a.Enqueued != sent[f] || a.Dequeued != sent[f] || a.Shed != 0 {
			t.Fatalf("flow %d: %d sent, %d dequeued, ledger %+v", f, sent[f], got[f], a)
		}
	}
	t.Logf("%d migrations", migrations.Load())
}

func drainShard(r *rt.Runtime, s int) []*sched.Packet {
	var out []*sched.Packet
	buf := make([]*sched.Packet, 8)
	for {
		n := r.DequeueBatch(s, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
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
