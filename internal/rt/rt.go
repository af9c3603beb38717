// Package rt is the real-time scheduling runtime: the wall-clock,
// goroutine-safe data path the ROADMAP's north star asks for, built on the
// same registered disciplines, flow-indexed core, and PIFO layer the
// discrete-event simulator drives (ROADMAP direction 1). The split mirrors
// the paper's own structure: the tag equations of Section 2 never mention
// a simulator — they need only a monotone "now" — so the pure disciplines
// stay untouched and this package supplies the concurrency shell:
//
//   - a sched.Clock time source (monotonic wall clock by default, a
//     ManualClock for replay harnesses, the simulator's event queue in
//     internal/sim);
//   - per-core shards, each owning one discipline instance behind a
//     mutex, with flows hashed across shards and migratable between them;
//   - a push/drain split: Enqueue and EnqueueBatch validate and stamp a
//     packet and append it, with its flow's entry, to a bounded ingress on
//     its shard without taking the shard lock; whoever next holds the
//     shard lock drains the ingress into the discipline in push order, at
//     each packet's stamp, so tags are still assigned under the lock;
//   - batched Enqueue/Dequeue that read the clock once per shard per
//     batch: packets a batch puts on one shard share one arrival stamp,
//     packets a batch takes off one shard share one dequeue time;
//   - bounded queues with counted shedding (backpressure as ErrShedding,
//     never silent loss), per-flow byte conservation accounting, and the
//     same Probe observability contract the simulator links honor.
//
// Fairness caveat: the paper's theorems bound one queue. A sharded runtime
// runs S independent SFQ instances, so the Theorem 1 bound holds among
// flows that share a shard; across shards fairness is only as good as the
// hash spreads load (DESIGN.md §16). Single-shard runtimes reproduce the
// simulator schedule exactly — internal/conformance pins the digests.
package rt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// shardHash spreads flow ids across shards (splitmix64 finalizer — flow
// ids are often small and sequential, so identity modulo would put flows
// 0..k-1 on consecutive shards and migrate them all when S changes by 1;
// the mix makes placement pseudo-random but stable across runs).
func shardHash(flow int) uint64 {
	z := uint64(flow) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FlowAccount is the per-flow conservation ledger, summed across shards:
// every byte offered to Enqueue is either queued (Enqueued), refused by
// backpressure (Shed), or rejected with an error the caller saw; every
// queued byte eventually reappears in Dequeued. The differential tests pin
// EnqueuedBytes == DequeuedBytes + still-queued bytes exactly.
type FlowAccount struct {
	Enqueued      int64
	Dequeued      int64
	Shed          int64
	EnqueuedBytes float64
	DequeuedBytes float64
	ShedBytes     float64
}

func (a *FlowAccount) add(b *FlowAccount) {
	a.Enqueued += b.Enqueued
	a.Dequeued += b.Dequeued
	a.Shed += b.Shed
	a.EnqueuedBytes += b.EnqueuedBytes
	a.DequeuedBytes += b.DequeuedBytes
	a.ShedBytes += b.ShedBytes
}

// flowEntry is the runtime's record of one registered flow, shared by the
// flow table, the ingress slots of its packets and the ledger tables of
// the shards that count it. shard is atomic so producers read it without
// the table lock; it changes only under Runtime.mu and the ingress locks of
// the shards it leaves and joins, and reads -1 once the flow is removed.
// acct[s] is the flow's ledger on shard s: its Enqueued and Dequeued
// counts are written under shard s's lock, its Shed counts under its
// ingress lock. weight and migrated (the flow has left its first shard, so
// it may have ledgers on others) are guarded by Runtime.mu.
type flowEntry struct {
	flow     int
	shard    atomic.Int32
	weight   float64
	migrated bool
	acct     []FlowAccount
}

// Runtime is a sharded, goroutine-safe scheduler driven by a Clock. All
// methods are safe for concurrent use.
type Runtime struct {
	name   string
	clock  sched.Clock
	shards []*shard

	mu     sync.RWMutex // guards flows and closed
	flows  entryIndex
	closed bool

	limit int64 // per-shard queued-packet cap; 0 = unbounded (atomic)
	rr    atomic.Int64
	y     yielder
}

// New constructs a runtime running cfg.Shards instances of the named
// discipline (default 1), driven by cfg.Clock (default the monotonic wall
// clock). It is the one way to build a runtime: it takes the option
// vocabulary of sched.New, which builds bare disciplines only and refuses
// WithClock/WithShards, so any registered name works:
// rt.New("sfq", sched.WithShards(8)). Every shard's discipline is built
// afresh from the one Config, which carries values only, so no two shards
// share an instance.
func New(name string, opts ...sched.Option) (*Runtime, error) {
	cfg := sched.BuildConfig(opts...)
	n := cfg.Shards
	if n < 0 {
		return nil, fmt.Errorf("%w: rt: negative shard count %d", sched.ErrBadConfig, n)
	}
	if n == 0 {
		n = 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = WallClock()
	}
	r := &Runtime{
		name:   name,
		clock:  clock,
		shards: make([]*shard, n),
	}
	for i := range r.shards {
		s, err := sched.NewDiscipline(name, cfg)
		if err != nil {
			return nil, err
		}
		r.shards[i] = newShard(i, s, &r.y)
	}
	return r, nil
}

// Name returns the discipline name the runtime was built from.
func (r *Runtime) Name() string { return r.name }

// SetQueueLimit bounds each shard to n queued packets; an Enqueue beyond
// the bound is refused with ErrShedding and counted in the flow's ledger.
// 0 removes the bound.
func (r *Runtime) SetQueueLimit(n int) { atomic.StoreInt64(&r.limit, int64(n)) }

// SetProbe installs p (nil removes) on every shard: the same observe-only
// contract as sim.Link.SetProbe, so an obs.Observer attaches to the
// runtime unchanged. Concurrent shards invoke the probe concurrently;
// obs guards itself. A packet is shown to OnEnqueue when its shard drains
// it, at its push stamp. The probe runs under the shard lock and must not
// call back into the runtime.
func (r *Runtime) SetProbe(p sched.Probe) {
	for _, sh := range r.shards {
		sh.lock()
		sh.probe = p
		sh.vtimer, _ = sh.sch.(sched.VirtualTimer)
		sh.mu.Unlock()
	}
}

// ShardOf returns the shard flow would hash to on registration. The live
// assignment can differ after MigrateFlow.
func (r *Runtime) ShardOf(flow int) int {
	return int(shardHash(flow) % uint64(len(r.shards)))
}

func errClosed() error { return fmt.Errorf("%w: runtime", sched.ErrClosed) }

// AddFlow registers flow with the given weight on its hashed shard, or
// re-weights an existing registration in place.
func (r *Runtime) AddFlow(flow int, weight float64) error {
	r.y.wlock(&r.mu)
	defer r.mu.Unlock()
	if r.closed {
		return errClosed()
	}
	if e := r.flows.get(flow); e != nil {
		sh := r.shards[e.shard.Load()]
		sh.lock()
		err := sh.sch.AddFlow(flow, weight)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		e.weight = weight
		return nil
	}
	s := r.ShardOf(flow)
	sh := r.shards[s]
	e := &flowEntry{flow: flow, weight: weight, acct: make([]FlowAccount, len(r.shards))}
	e.shard.Store(int32(s))
	sh.lock()
	err := sh.sch.AddFlow(flow, weight)
	if err == nil {
		sh.keep(e)
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	r.flows.put(e)
	return nil
}

// RemoveFlow unregisters an idle flow (ErrFlowBusy while packets are
// queued, exactly the Interface contract) and drops its FlowAccount ledger
// on every shard that holds none of its bytes. A push that resolved the
// flow before the removal finds it gone under the ingress lock and fails
// with ErrUnknownFlow.
func (r *Runtime) RemoveFlow(flow int) error {
	r.y.wlock(&r.mu)
	defer r.mu.Unlock()
	e := r.flows.get(flow)
	if e == nil {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	sh := r.shards[e.shard.Load()]
	sh.lockAll()
	r.y.yield(siteRemove)
	err := sh.sch.RemoveFlow(flow)
	if err == nil {
		sh.ledgers.del(flow)
		e.shard.Store(-1)
	}
	sh.unlockAll()
	if err != nil {
		return err
	}
	r.flows.del(flow)
	if e.migrated {
		// Drop the ledgers the flow left on the shards it migrated from,
		// except on one still draining it: its dequeues must still be
		// counted.
		for _, o := range r.shards {
			if o == sh {
				continue
			}
			r.y.yield(siteRemove)
			o.lock()
			if o.sch.QueuedBytes(flow) == 0 {
				o.ledgers.del(flow)
			}
			o.mu.Unlock()
		}
	}
	return nil
}

// MigrateFlow reassigns flow to shard dst. An idle flow moves immediately.
// A backlogged flow is drain-migrated when the discipline supports it
// (sched.Reconfigurable): new arrivals go to dst at once while the old
// shard serves out the remaining backlog and auto-unregisters — the
// runtime analogue of DrainFlow's graceful removal. Disciplines without
// DrainFlow refuse with ErrFlowBusy; migrating onto a shard that is still
// draining this flow refuses with ErrFlowDraining. The source's ingress is
// drained first and held until the flow's shard has changed, so every
// packet pushed to the source reaches its discipline before the choice
// between idle and drain, and none is pushed there after.
func (r *Runtime) MigrateFlow(flow, dst int) error {
	r.y.wlock(&r.mu)
	defer r.mu.Unlock()
	if r.closed {
		return errClosed()
	}
	if dst < 0 || dst >= len(r.shards) {
		return fmt.Errorf("%w: migrate flow %d: shard %d out of range [0,%d)", sched.ErrBadConfig, flow, dst, len(r.shards))
	}
	e := r.flows.get(flow)
	if e == nil {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	src := int(e.shard.Load())
	if src == dst {
		return nil
	}
	// Hold both shards and both ingresses, in shard order: a push pass on
	// either shard then sees the flow's shard before the move or after it,
	// never both, so it cannot push a later packet of the flow ahead of an
	// earlier one it skipped.
	shSrc, shDst := r.shards[src], r.shards[dst]
	lo, hi := shSrc, shDst
	if dst < src {
		lo, hi = hi, lo
	}
	lo.lockAll()
	hi.lockAll()
	defer lo.unlockAll()
	defer hi.unlockAll()

	// Register on dst first: if that fails (e.g. dst is still draining
	// this flow from an earlier migration away from it), nothing changed.
	r.y.yield(siteMigrate)
	if err := shDst.sch.AddFlow(flow, e.weight); err != nil {
		return err
	}
	r.y.yield(siteMigrate)
	if shSrc.sch.QueuedBytes(flow) == 0 {
		if err := shSrc.sch.RemoveFlow(flow); err != nil {
			_ = shDst.sch.RemoveFlow(flow) // roll back: dst registration is idle
			return err
		}
	} else {
		rc, ok := shSrc.sch.(sched.Reconfigurable)
		if !ok {
			_ = shDst.sch.RemoveFlow(flow)
			return fmt.Errorf("%w: flow %d backlogged on shard %d and %s cannot drain", sched.ErrFlowBusy, flow, src, r.name)
		}
		if err := rc.DrainFlow(flow); err != nil {
			_ = shDst.sch.RemoveFlow(flow)
			return err
		}
	}
	r.y.yield(siteMigrate)
	shDst.keep(e)
	e.migrated = true
	e.shard.Store(int32(dst))
	return nil
}

// positive reports whether x can be a packet length: finite and > 0, the
// check every discipline's Enqueue makes (NaN and +Inf pass a bare x <= 0).
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// Enqueue stamps p with the clock's current time and queues it on its
// flow's shard. The packet's Flow and Length must be set; Arrival is
// overwritten with the clock reading. Errors wrap the shared vocabulary:
// ErrClosed, ErrUnknownFlow, ErrShedding, ErrBadPacket.
func (r *Runtime) Enqueue(p *sched.Packet) error {
	ps := [1]*sched.Packet{p}
	var es [1]*flowEntry
	r.y.rlock(&r.mu)
	closed := r.closed
	es[0] = r.flows.get(p.Flow)
	r.mu.RUnlock()
	if closed {
		return errClosed()
	}
	_, err := r.push(ps[:], es[:])
	return err
}

// batchResolveStack bounds the stack-allocated flow-entry scratch in
// EnqueueBatch; larger batches fall back to a heap slice. It matches the
// benchmark batch size so the zero-alloc steady state holds.
const batchResolveStack = 64

// EnqueueBatch queues every packet it can, reading the clock once per
// shard it touches; packets on one shard share one arrival stamp. Each
// shard's packets are queued in batch order, so a flow's packets keep
// their batch order. It returns the number of packets accepted and the
// error of the lowest-indexed packet that failed; later packets are still
// attempted, so a single shed mid-batch does not discard the rest. After
// Close it accepts nothing and returns ErrClosed.
func (r *Runtime) EnqueueBatch(ps []*sched.Packet) (int, error) {
	var stack [batchResolveStack]*flowEntry
	es := stack[:]
	if len(ps) > len(es) {
		es = make([]*flowEntry, len(ps))
	} else {
		es = es[:len(ps)]
	}
	r.y.rlock(&r.mu)
	if r.closed {
		r.mu.RUnlock()
		return 0, errClosed()
	}
	for i, p := range ps {
		es[i] = r.flows.get(p.Flow)
	}
	r.mu.RUnlock()
	return r.push(ps, es)
}

// push validates ps and appends each packet, with its flow's entry es[i],
// to the ingress of the entry's shard. It takes no shard lock and no table
// lock: the packets are admitted to the discipline by the next holder of
// the shard lock (shard.admit), at their stamps and in push order. Every
// check a discipline's Enqueue makes is made here, so a packet push
// accepts is one the drain does not refuse.
func (r *Runtime) push(ps []*sched.Packet, es []*flowEntry) (n int, err error) {
	errAt := len(ps)
	for i, e := range es {
		if e != nil && positive(ps[i].Length) {
			continue
		}
		es[i] = nil
		if err == nil {
			errAt = i
			if e == nil {
				err = fmt.Errorf("%w: %d", sched.ErrUnknownFlow, ps[i].Flow)
			} else {
				err = fmt.Errorf("%w: flow %d length %v", sched.ErrBadPacket, ps[i].Flow, ps[i].Length)
			}
		}
	}
	limit := atomic.LoadInt64(&r.limit)

	// Serve the batch shard by shard: take the shard of the first pending
	// packet, read the clock once, and under that shard's ingress lock push
	// every pending packet whose entry still names the shard, clearing its
	// entry. A packet whose flow moved between the read and the lock is
	// left pending and pushed on a later pass; one whose flow was removed
	// fails.
	for first := 0; first < len(ps); {
		e := es[first]
		if e == nil {
			first++
			continue
		}
		s := int(e.shard.Load())
		if s < 0 {
			es[first] = nil
			if first < errAt {
				errAt, err = first, fmt.Errorf("%w: %d", sched.ErrUnknownFlow, ps[first].Flow)
			}
			continue
		}
		sh := r.shards[s]
		in := &sh.in
		t := r.clock.Now()
		r.y.yield(sitePush)
		r.y.lock(&in.mu)
		stamp := in.clamp(t)
		var added int64
		for i := first; i < len(ps); i++ {
			e := es[i]
			if e == nil {
				continue
			}
			if in.n == ingressCap {
				// Full: drain it ourselves, then go over the batch again
				// from first, since a flow may have moved here meanwhile.
				in.queued.Add(added)
				added = 0
				in.mu.Unlock()
				sh.lock()
				sh.mu.Unlock()
				r.y.lock(&in.mu)
				stamp = in.clamp(stamp)
				i = first - 1
				continue
			}
			r.y.yield(siteRecheck)
			if int(e.shard.Load()) != s {
				continue
			}
			es[i] = nil
			p := ps[i]
			if limit > 0 && in.queued.Load()+added >= limit {
				a := &e.acct[s]
				a.Shed++
				a.ShedBytes += p.Length
				if i < errAt {
					errAt, err = i, fmt.Errorf("%w: shard %d over %d queued packets", sched.ErrShedding, s, limit)
				}
				continue
			}
			p.Arrival = stamp
			in.slots[in.n] = slot{p, e}
			in.n++
			added++
			n++
		}
		in.queued.Add(added)
		in.mu.Unlock()
	}
	return n, err
}

// DequeueShard pops the next packet from one shard's schedule at the
// clock's current time. ok is false when the shard is idle. Dequeueing
// remains legal on a closed runtime — closing stops arrivals, the backlog
// drains.
func (r *Runtime) DequeueShard(s int) (*sched.Packet, bool) {
	var buf [1]*sched.Packet
	if r.DequeueBatch(s, buf[:]) == 0 {
		return nil, false
	}
	return buf[0], true
}

// DequeueBatch pops up to len(buf) packets from shard s under one lock
// acquisition and one clock read (every packet of the batch leaves at the
// same time), returning how many it wrote into buf. It first drains the
// shard's ingress into the discipline.
// This is the per-core worker's fast path: with a PoolSafe discipline the
// returned packets may be reused for the worker's next EnqueueBatch,
// making the steady state allocation-free.
func (r *Runtime) DequeueBatch(s int, buf []*sched.Packet) int {
	sh := r.shards[s]
	sh.y.lock(&sh.mu)
	now := sh.drainAt(r.clock.Now())
	n := 0
	for n < len(buf) {
		p, ok := sh.dequeueLocked(now)
		if !ok {
			break
		}
		buf[n] = p
		n++
	}
	sh.mu.Unlock()
	if n > 0 {
		sh.in.queued.Add(-int64(n))
	}
	return n
}

// Dequeue pops from the runtime as a whole, scanning shards round-robin
// from a rotating cursor so no shard starves. It is the Interface-shaped
// escape hatch (and what the sched.New adapter uses); per-core workers
// should prefer DequeueShard/DequeueBatch, which never touch other
// shards' locks.
func (r *Runtime) Dequeue() (*sched.Packet, bool) {
	n := len(r.shards)
	start := int(r.rr.Add(1)-1) % n
	if start < 0 {
		start += n
	}
	for i := 0; i < n; i++ {
		if p, ok := r.DequeueShard((start + i) % n); ok {
			return p, true
		}
	}
	return nil, false
}

// Len returns the total queued packets across shards.
func (r *Runtime) Len() int {
	total := 0
	for _, sh := range r.shards {
		sh.lock()
		total += sh.sch.Len()
		sh.mu.Unlock()
	}
	return total
}

// QueuedBytes sums flow's queued bytes across every shard (a drain-
// migrating flow can hold bytes on two shards at once).
func (r *Runtime) QueuedBytes(flow int) float64 {
	total := 0.0
	for _, sh := range r.shards {
		sh.lock()
		total += sh.sch.QueuedBytes(flow)
		sh.mu.Unlock()
	}
	return total
}

// FlowAccount returns flow's conservation ledger summed across shards.
func (r *Runtime) FlowAccount(flow int) FlowAccount {
	var out FlowAccount
	for _, sh := range r.shards {
		sh.lockAll()
		if e := sh.ledgers.get(flow); e != nil {
			out.add(&e.acct[sh.idx])
		}
		sh.unlockAll()
	}
	return out
}

// Close stops the intake: subsequent AddFlow/Enqueue/Migrate calls fail
// with ErrClosed, and EnqueueBatch accepts nothing. Every packet accepted
// before stays dequeueable so workers drain it; Close drains each shard's
// ingress into its discipline. Closing twice is an error (ErrClosed),
// making shutdown bugs loud.
func (r *Runtime) Close() error {
	r.y.wlock(&r.mu)
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("%w: already closed", sched.ErrClosed)
	}
	r.closed = true
	r.mu.Unlock()
	for _, sh := range r.shards {
		r.y.yield(siteClose)
		sh.lock()
		sh.mu.Unlock()
	}
	return nil
}

// Closed reports whether Close was called.
func (r *Runtime) Closed() bool {
	r.y.rlock(&r.mu)
	defer r.mu.RUnlock()
	return r.closed
}
