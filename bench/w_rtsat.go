package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/internal/sched"
)

// rt-saturate: the wall-clock data path with the producer and the consumer
// on different cores. rtFlows flows each own rtPerFlow packets of cost
// rtCost; the producer enqueues whatever the consumer has handed back, in
// batches of rtBatch, and the consumer drains the two shards in turn, so the
// shard locks, the flow-table read lock and the clock read are contended the
// way a real worker pair contends them.
const (
	rtFlows     = 64
	rtPerFlow   = 32
	rtCost      = 100.0
	rtBatch     = 64
	rtShards    = 2
	sharePrefil = 1024 // share phase: packets per flow
)

// tracedSFQName is a benchmark-only registry name: rt.New builds one
// discipline per shard by name, so a traced runtime is built from a name
// whose factory decorates "sfq" with whatever traceHook holds.
const tracedSFQName = "bench-traced-sfq"

var traceHook struct {
	sync.Mutex
	decorate func(sched.Interface) sched.Interface
}

func init() {
	sched.Register(tracedSFQName, func(cfg sched.Config) (sched.Interface, error) {
		inner, err := sched.NewDiscipline("sfq", cfg)
		if err != nil || traceHook.decorate == nil {
			return inner, err
		}
		return traceHook.decorate(inner), nil
	})
}

// newRuntime builds an SFQ runtime: from the production name "sfq", or,
// when decorate is set, from the traced name with every shard's discipline
// passed through decorate.
func newRuntime(decorate func(sched.Interface) sched.Interface, opts ...sched.Option) (*rt.Runtime, error) {
	if decorate == nil {
		return rt.New("sfq", opts...)
	}
	traceHook.Lock()
	defer traceHook.Unlock()
	traceHook.decorate = decorate
	defer func() { traceHook.decorate = nil }()
	return rt.New(tracedSFQName, opts...)
}

// spscRing hands packets from the consumer goroutine back to the producer.
// Its capacity is the number of packets in circulation, so push never finds
// it full.
type spscRing struct {
	buf  []*sched.Packet
	mask uint64
	head atomic.Uint64 // next slot to pop; written by the producer only
	_    [56]byte      // keep the two cursors on separate cache lines
	tail atomic.Uint64 // next slot to push; written by the consumer only
}

func newRing(capacity int) *spscRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &spscRing{buf: make([]*sched.Packet, n), mask: uint64(n - 1)}
}

func (r *spscRing) push(ps []*sched.Packet) {
	t := r.tail.Load()
	for i, p := range ps {
		r.buf[(t+uint64(i))&r.mask] = p
	}
	r.tail.Store(t + uint64(len(ps)))
}

func (r *spscRing) pop(dst []*sched.Packet) int {
	h := r.head.Load()
	n := int(r.tail.Load() - h)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.buf[(h+uint64(i))&r.mask]
	}
	r.head.Store(h + uint64(n))
	return n
}

func (r *spscRing) len() int { return int(r.tail.Load() - r.head.Load()) }

// waitProbe measures queue wait (dequeue time minus the arrival stamp the
// runtime put on the packet) through Runtime.SetProbe in traced passes. The
// shards call it concurrently, hence the lock.
type waitProbe struct {
	sched.NopProbe
	mu sync.Mutex
	h  hist
}

func (w *waitProbe) OnDequeue(now float64, p *sched.Packet) {
	w.mu.Lock()
	w.h.add(int64((now - p.Arrival) * 1e9))
	w.mu.Unlock()
}

type rtsatInst struct {
	e       *env
	r       *rt.Runtime
	ring    *spscRing
	weights []float64
	total   int
	perTry  int64

	prodTk, consTk *track
	probe          *waitProbe
}

func setupRtSaturate(e *env, _ int) instance {
	rng := rand.New(rand.NewSource(e.seed))
	ri := &rtsatInst{e: e, weights: make([]float64, rtFlows), perTry: int64(e.pick(32_768, 8_192))}
	for f := range ri.weights {
		ri.weights[f] = float64(1 + rng.Intn(4))
	}
	e.hashFloats(ri.weights...)
	ri.sharePhase()

	var decorate func(sched.Interface) sched.Interface
	if e.tr != nil {
		ri.prodTk, ri.consTk = e.tr.track(""), e.tr.track("")
		decorate = func(s sched.Interface) sched.Interface {
			return &tracedSched{Interface: s, t: e.tr.track(""), enqRoot: spRtEnqBatch, deqRoot: spRtDeqBatch}
		}
	}
	r, err := newRuntime(decorate, sched.WithShards(rtShards), sched.WithClock(rt.WallClock()))
	if err != nil {
		e.q.check(false, "rt-saturate: rt.New: %v", err)
		return ri
	}
	ri.r = r
	ri.total = rtFlows * rtPerFlow
	ri.ring = newRing(ri.total)
	for f, w := range ri.weights {
		if err := r.AddFlow(f, w); err != nil {
			e.q.check(false, "rt-saturate: AddFlow: %v", err)
		}
	}
	// Interleave the flows so every batch mixes flows and shards.
	all := make([]*sched.Packet, 0, ri.total)
	for i := 0; i < rtPerFlow; i++ {
		for f := 0; f < rtFlows; f++ {
			all = append(all, &sched.Packet{Flow: f, Length: rtCost})
		}
	}
	ri.ring.push(all)
	if e.tr != nil {
		ri.probe = &waitProbe{}
		r.SetProbe(ri.probe)
	}
	warmUp(ri, e.pick(8, 1))
	return ri
}

// sharePhase is the deterministic fairness check of the runtime: on a
// manual clock, prefill every flow and drain each shard until its first
// flow runs out; while all of a shard's flows are backlogged each must have
// received its weight's share of the service.
func (ri *rtsatInst) sharePhase() {
	q := &ri.e.q
	clock := &sched.ManualClock{}
	r, err := rt.New("sfq", sched.WithShards(rtShards), sched.WithClock(clock))
	if err != nil {
		q.check(false, "rt-saturate: share phase rt.New: %v", err)
		return
	}
	prefill := ri.e.pick(sharePrefil, 64)
	shardFlows := make([][]int, rtShards)
	for f, w := range ri.weights {
		if err := r.AddFlow(f, w); err != nil {
			q.check(false, "rt-saturate: share phase AddFlow: %v", err)
			return
		}
		s := r.ShardOf(f)
		shardFlows[s] = append(shardFlows[s], f)
		for i := 0; i < prefill; i++ {
			if err := r.Enqueue(&sched.Packet{Flow: f, Length: rtCost}); err != nil {
				q.check(false, "rt-saturate: share phase Enqueue: %v", err)
				return
			}
		}
	}
	worst := math.Inf(1)
	for s, flows := range shardFlows {
		if len(flows) < 2 {
			continue
		}
		served := make(map[int]float64, len(flows))
		var servedSum, weightSum float64
		for _, f := range flows {
			weightSum += ri.weights[f]
		}
		for {
			clock.Advance(1e-6)
			p, ok := r.DequeueShard(s)
			if !ok {
				q.check(false, "rt-saturate: share phase shard %d ran dry", s)
				return
			}
			served[p.Flow] += p.Length
			servedSum += p.Length
			if served[p.Flow] == float64(prefill)*rtCost {
				break // this flow is no longer backlogged
			}
		}
		for _, f := range flows {
			share := (served[f] / servedSum) / (ri.weights[f] / weightSum)
			worst = math.Min(worst, share)
		}
	}
	q.check(worst > 0.9, "rt-saturate: share_min %.4f: a backlogged flow got under 90%% of its weight's share", worst)
	q.reportShare(worst)
}

func (ri *rtsatInst) trial() (ops, failed int64) {
	if ri.r == nil {
		return 1, 1
	}
	r := ri.r
	var stop atomic.Bool
	var refused, calls, empties, got int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		batch := make([]*sched.Packet, rtBatch)
		for !stop.Load() {
			n := ri.ring.pop(batch)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			if ri.prodTk != nil {
				ri.prodTk.begin(spRtEnqBatch)
			}
			acc, _ := r.EnqueueBatch(batch[:n])
			if ri.prodTk != nil {
				ri.prodTk.end()
			}
			refused += int64(n - acc)
		}
	}()
	go func() { // consumer
		defer wg.Done()
		buf := make([]*sched.Packet, rtBatch)
		s := 0
		for got < ri.perTry {
			if ri.consTk != nil {
				ri.consTk.begin(spRtDeqBatch)
			}
			n := r.DequeueBatch(s, buf)
			if ri.consTk != nil {
				ri.consTk.end()
			}
			s = (s + 1) % rtShards
			calls++
			if n == 0 {
				empties++
				runtime.Gosched()
				continue
			}
			ri.ring.push(buf[:n])
			got += int64(n)
		}
		stop.Store(true)
	}()
	if ri.e.tr != nil {
		ri.controlPlane(&stop)
	}
	wg.Wait()
	ri.e.q.layer["rt.deq_reqs"] += float64(got)
	ri.e.q.layer["rt.deq_calls"] += float64(calls)
	ri.e.q.layer["rt.deq_empty"] += float64(empties)

	// Conservation: every packet is in the runtime or in the ring, and the
	// ledgers agree with the queue.
	var enq, deq, shed int64
	for f := 0; f < rtFlows; f++ {
		a := r.FlowAccount(f)
		enq, deq, shed = enq+a.Enqueued, deq+a.Dequeued, shed+a.Shed
	}
	queued := int64(r.Len())
	if enq-deq != queued || queued+int64(ri.ring.len()) != int64(ri.total) || shed != 0 {
		failed++
	}
	return got, failed + refused
}

// controlPlane issues flow-table writes beside the running data path (a
// traced pass only): an idle flow is migrated between the shards and a
// spare flow is added and removed, once a millisecond, each timed.
func (ri *rtsatInst) controlPlane(stop *atomic.Bool) {
	const idle, spare = rtFlows, rtFlows + 1
	q := &ri.e.q
	if err := ri.r.AddFlow(idle, 1); err != nil {
		q.check(false, "rt-saturate: AddFlow(idle): %v", err)
		return
	}
	dst := 1 - ri.r.ShardOf(idle)
	var migrate, addRemove []float64
	for !stop.Load() {
		t0 := time.Now()
		err := ri.r.MigrateFlow(idle, dst)
		migrate = append(migrate, float64(time.Since(t0).Nanoseconds())/1e3)
		q.check(err == nil, "rt-saturate: MigrateFlow: %v", err)
		dst = 1 - dst

		t0 = time.Now()
		err = ri.r.AddFlow(spare, 2)
		if err == nil {
			err = ri.r.RemoveFlow(spare)
		}
		addRemove = append(addRemove, float64(time.Since(t0).Nanoseconds())/1e3)
		q.check(err == nil, "rt-saturate: AddFlow+RemoveFlow: %v", err)
		time.Sleep(time.Millisecond)
	}
	if err := ri.r.RemoveFlow(idle); err != nil {
		q.check(false, "rt-saturate: RemoveFlow(idle): %v", err)
	}
	q.layer["rt.migrate_us"] = median(migrate)
	q.layer["rt.addremove_us"] = median(addRemove)
}

func (ri *rtsatInst) close() {
	if ri.probe != nil {
		ri.e.q.layer["rt.queue_wait_p99_us"] = ri.probe.h.quantile(0.99) / 1e3
	}
}

// rtsatLayers charges the batch calls per request; a call's self time is
// what is left after the decorated discipline's share: lock, flow table,
// clock, ledger.
func rtsatLayers(e *env, _, _ *measured, sum *traceSummary, out map[string]float64) {
	if reqs := float64(sum.count(spSchedEnq)); reqs > 0 {
		out["rt.enq_batch_ns_req"] = float64(sum.totalNs(spRtEnqBatch)) / reqs
		out["rt.enq_self_ns_req"] = float64(sum.selfNs(spRtEnqBatch)) / reqs
	}
	if reqs := e.q.layer["rt.deq_reqs"]; reqs > 0 {
		out["rt.deq_batch_ns_req"] = float64(sum.totalNs(spRtDeqBatch)) / reqs
		out["rt.deq_self_ns_req"] = float64(sum.selfNs(spRtDeqBatch)) / reqs
	}
	if calls := e.q.layer["rt.deq_calls"]; calls > 0 {
		out["rt.empty_deq_ratio"] = e.q.layer["rt.deq_empty"] / calls
	}
}

var rtSaturate = workloadDef{
	name: "rt-saturate",
	op:   "one request dequeued",
	why: "The wall-clock data path with producer and consumer on different cores: 2 shards, 64 flows, batches " +
		"of 64, so shard-lock hand-off, the flow-table read lock and the clock read are contended.",
	setup:        setupRtSaturate,
	layers:       rtsatLayers,
	minInstances: 5,
}
