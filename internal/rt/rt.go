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
//   - batched Enqueue/Dequeue that take one lock and one clock read per
//     shard per batch: packets a batch puts on one shard share one arrival
//     stamp, packets a batch takes off one shard share one dequeue time;
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

// flowEntry is the runtime's registration record for one flow. The shard
// assignment is atomic so the lock-free fast path can read it, re-check it
// under the shard lock, and retry if a migration won the race. migrated
// (guarded by Runtime.mu) records that the flow has ever left its first
// shard, so it may have ledgers on other shards.
type flowEntry struct {
	shard    atomic.Int32
	weight   float64
	migrated bool
}

// shard owns one discipline instance. All scheduler calls happen under mu;
// last clamps the clock so a scheduler never sees time go backwards even
// though concurrent goroutines read the clock outside the lock.
type shard struct {
	mu     sync.Mutex
	sch    sched.Interface
	last   float64
	acct   map[int]*FlowAccount
	probe  sched.Probe
	vtimer sched.VirtualTimer
}

// now reads the clock and clamps it monotone for this shard. Callers hold
// sh.mu.
func (sh *shard) now(c sched.Clock) float64 {
	t := c.Now()
	if t < sh.last {
		return sh.last
	}
	sh.last = t
	return t
}

// Runtime is a sharded, goroutine-safe scheduler driven by a Clock. All
// methods are safe for concurrent use.
type Runtime struct {
	name   string
	clock  sched.Clock
	shards []*shard

	mu     sync.RWMutex // guards flows (the map itself) and closed
	flows  map[int]*flowEntry
	closed bool

	limit int64 // per-shard queued-packet cap; 0 = unbounded (atomic)
	rr    atomic.Int64
}

// New constructs a runtime running cfg.Shards instances of the named
// discipline (default 1), driven by cfg.Clock (default the monotonic wall
// clock). It accepts exactly the option vocabulary of sched.New — in fact
// sched.New with WithClock/WithShards delegates here — so any registered
// name works: rt.New("sfq", sched.WithShards(8)).
func New(name string, opts ...sched.Option) (*Runtime, error) {
	return NewFromConfig(name, sched.BuildConfig(opts...))
}

// NewFromConfig is New over an explicit Config (the sched.RuntimeBuilder
// entry point).
func NewFromConfig(name string, cfg sched.Config) (*Runtime, error) {
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
		flows:  make(map[int]*flowEntry),
	}
	for i := range r.shards {
		s, err := sched.NewDiscipline(name, cfg)
		if err != nil {
			return nil, err
		}
		r.shards[i] = &shard{sch: s, acct: make(map[int]*FlowAccount)}
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
// obs guards itself.
func (r *Runtime) SetProbe(p sched.Probe) {
	for _, sh := range r.shards {
		sh.mu.Lock()
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

// AddFlow registers flow with the given weight on its hashed shard, or
// re-weights an existing registration in place.
func (r *Runtime) AddFlow(flow int, weight float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("%w: runtime", sched.ErrClosed)
	}
	if e := r.flows[flow]; e != nil {
		sh := r.shards[e.shard.Load()]
		sh.mu.Lock()
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
	sh.mu.Lock()
	err := sh.sch.AddFlow(flow, weight)
	if err == nil && sh.acct[flow] == nil {
		sh.acct[flow] = &FlowAccount{}
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	e := &flowEntry{weight: weight}
	e.shard.Store(int32(s))
	r.flows[flow] = e
	return nil
}

// RemoveFlow unregisters an idle flow (ErrFlowBusy while packets are
// queued, exactly the Interface contract) and drops its FlowAccount ledger
// on every shard that holds none of its bytes.
func (r *Runtime) RemoveFlow(flow int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.flows[flow]
	if e == nil {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	sh := r.shards[e.shard.Load()]
	sh.mu.Lock()
	err := sh.sch.RemoveFlow(flow)
	if err == nil {
		delete(sh.acct, flow)
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	delete(r.flows, flow)
	if e.migrated {
		// Drop the ledgers the flow left on the shards it migrated from,
		// except on one still draining it: its dequeues must still be
		// counted.
		for _, o := range r.shards {
			if o == sh {
				continue
			}
			o.mu.Lock()
			if o.sch.QueuedBytes(flow) == 0 {
				delete(o.acct, flow)
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
// draining this flow refuses with ErrFlowDraining.
func (r *Runtime) MigrateFlow(flow, dst int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("%w: runtime", sched.ErrClosed)
	}
	if dst < 0 || dst >= len(r.shards) {
		return fmt.Errorf("%w: migrate flow %d: shard %d out of range [0,%d)", sched.ErrBadConfig, flow, dst, len(r.shards))
	}
	e := r.flows[flow]
	if e == nil {
		return fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	src := int(e.shard.Load())
	if src == dst {
		return nil
	}
	a, b := src, dst
	if b < a {
		a, b = b, a
	}
	shSrc, shDst := r.shards[src], r.shards[dst]
	r.shards[a].mu.Lock()
	r.shards[b].mu.Lock()
	defer r.shards[a].mu.Unlock()
	defer r.shards[b].mu.Unlock()

	// Register on dst first: if that fails (e.g. dst is still draining
	// this flow from an earlier migration away from it), nothing changed.
	if err := shDst.sch.AddFlow(flow, e.weight); err != nil {
		return err
	}
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
	if shDst.acct[flow] == nil {
		shDst.acct[flow] = &FlowAccount{}
	}
	e.shard.Store(int32(dst))
	e.migrated = true
	return nil
}

// resolve returns the flow's entry, or an error. The fast path takes only
// the read lock.
func (r *Runtime) resolve(flow int) (*flowEntry, error) {
	r.mu.RLock()
	closed := r.closed
	e := r.flows[flow]
	r.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("%w: runtime", sched.ErrClosed)
	}
	if e == nil {
		return nil, fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	return e, nil
}

// lockShardOf locks the shard the entry is assigned to, retrying if a
// concurrent migration moves the flow between the read and the lock (the
// assignment can only change while both shard locks are held, so once we
// hold the lock and re-read the same value, it is stable for the critical
// section).
func (r *Runtime) lockShardOf(e *flowEntry) (*shard, int) {
	for {
		s := int(e.shard.Load())
		sh := r.shards[s]
		sh.mu.Lock()
		if int(e.shard.Load()) == s {
			return sh, s
		}
		sh.mu.Unlock()
	}
}

// enqueueLocked runs the shard-local enqueue under sh.mu at time now, a
// reading of sh.now taken under the same lock hold.
func (r *Runtime) enqueueLocked(sh *shard, s int, now float64, p *sched.Packet) error {
	if limit := atomic.LoadInt64(&r.limit); limit > 0 && int64(sh.sch.Len()) >= limit {
		if a := sh.acct[p.Flow]; a != nil {
			a.Shed++
			a.ShedBytes += p.Length
		}
		return fmt.Errorf("%w: shard %d over %d queued packets", sched.ErrShedding, s, limit)
	}
	p.Arrival = now
	if err := sh.sch.Enqueue(now, p); err != nil {
		return err
	}
	if a := sh.acct[p.Flow]; a != nil {
		a.Enqueued++
		a.EnqueuedBytes += p.Length
	}
	if sh.probe != nil {
		sh.probe.OnEnqueue(now, p)
		if sh.vtimer != nil {
			sh.probe.OnVirtualTime(now, sh.vtimer.V())
		}
	}
	return nil
}

// Enqueue stamps p with the clock's current time and queues it on its
// flow's shard. The packet's Flow and Length must be set; Arrival is
// overwritten with the clock reading. Errors wrap the shared vocabulary:
// ErrClosed, ErrUnknownFlow, ErrShedding, ErrFlowDraining, ErrBadPacket.
func (r *Runtime) Enqueue(p *sched.Packet) error {
	e, err := r.resolve(p.Flow)
	if err != nil {
		return err
	}
	sh, s := r.lockShardOf(e)
	err = r.enqueueLocked(sh, s, sh.now(r.clock), p)
	sh.mu.Unlock()
	return err
}

// batchResolveStack bounds the stack-allocated flow-entry scratch in
// EnqueueBatch; larger batches fall back to a heap slice. It matches the
// benchmark batch size so the zero-alloc steady state holds.
const batchResolveStack = 64

// EnqueueBatch queues every packet it can, taking one lock per shard per
// batch; packets on one shard share one arrival stamp. Each shard's
// packets are queued in batch order, so a flow's packets keep their batch
// order. It returns the number of packets accepted and the error of the
// lowest-indexed packet that failed; later packets are still attempted, so
// a single shed mid-batch does not discard the rest.
func (r *Runtime) EnqueueBatch(ps []*sched.Packet) (int, error) {
	// Resolve every packet's flow entry up front, under one read-lock
	// acquisition for the whole batch. Resolving inside the shard-locked
	// loop below would hold a shard mutex while waiting on r.mu — the
	// reverse of the AddFlow/RemoveFlow/MigrateFlow order (r.mu, then
	// shard mutexes) — and deadlock against a concurrent flow-table
	// writer. No shard lock is held anywhere in this pass.
	var stack [batchResolveStack]*flowEntry
	entries := stack[:]
	if len(ps) > len(entries) {
		entries = make([]*flowEntry, len(ps))
	} else {
		entries = entries[:len(ps)]
	}
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return 0, fmt.Errorf("%w: runtime", sched.ErrClosed)
	}
	for i, p := range ps {
		entries[i] = r.flows[p.Flow]
	}
	r.mu.RUnlock()

	n := 0
	var firstErr error
	errAt := len(ps)
	for i, e := range entries {
		if e == nil {
			errAt, firstErr = i, fmt.Errorf("%w: %d", sched.ErrUnknownFlow, ps[i].Flow)
			break
		}
	}

	// Serve the batch shard by shard: lock the shard of the first pending
	// packet, read its clock once, queue every pending packet assigned to
	// it and mark each done by clearing its entry. Under the shard lock an
	// assignment that reads s cannot change, and one that reads another
	// shard cannot become s, so each pass sees a stable set.
	for first := range ps {
		e := entries[first]
		if e == nil {
			continue
		}
		sh, s := r.lockShardOf(e)
		now := sh.now(r.clock)
		for i := first; i < len(ps); i++ {
			if e := entries[i]; e == nil || int(e.shard.Load()) != s {
				continue
			}
			entries[i] = nil
			if err := r.enqueueLocked(sh, s, now, ps[i]); err != nil {
				if i < errAt {
					errAt, firstErr = i, err
				}
				continue
			}
			n++
		}
		sh.mu.Unlock()
	}
	return n, firstErr
}

// dequeueLocked runs the shard-local dequeue under sh.mu at time now, a
// reading of sh.now taken under the same lock hold.
func (sh *shard) dequeueLocked(now float64) (*sched.Packet, bool) {
	p, ok := sh.sch.Dequeue(now)
	if !ok {
		return nil, false
	}
	if a := sh.acct[p.Flow]; a != nil {
		a.Dequeued++
		a.DequeuedBytes += p.Length
	}
	if sh.probe != nil {
		sh.probe.OnDequeue(now, p)
		if sh.vtimer != nil {
			sh.probe.OnVirtualTime(now, sh.vtimer.V())
		}
	}
	return p, true
}

// DequeueShard pops the next packet from one shard's schedule at the
// clock's current time. ok is false when the shard is idle. Dequeueing
// remains legal on a closed runtime — closing stops arrivals, the backlog
// drains.
func (r *Runtime) DequeueShard(s int) (*sched.Packet, bool) {
	sh := r.shards[s]
	sh.mu.Lock()
	p, ok := sh.dequeueLocked(sh.now(r.clock))
	sh.mu.Unlock()
	return p, ok
}

// DequeueBatch pops up to len(buf) packets from shard s under one lock
// acquisition and one clock read (every packet of the batch leaves at the
// same time), returning how many it wrote into buf.
// This is the per-core worker's fast path: with a PoolSafe discipline the
// returned packets may be reused for the worker's next EnqueueBatch,
// making the steady state allocation-free.
func (r *Runtime) DequeueBatch(s int, buf []*sched.Packet) int {
	sh := r.shards[s]
	sh.mu.Lock()
	now := sh.now(r.clock)
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
		sh.mu.Lock()
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
		sh.mu.Lock()
		total += sh.sch.QueuedBytes(flow)
		sh.mu.Unlock()
	}
	return total
}

// FlowAccount returns flow's conservation ledger summed across shards.
func (r *Runtime) FlowAccount(flow int) FlowAccount {
	var out FlowAccount
	for _, sh := range r.shards {
		sh.mu.Lock()
		if a := sh.acct[flow]; a != nil {
			out.add(a)
		}
		sh.mu.Unlock()
	}
	return out
}

// Close stops the intake: subsequent AddFlow/Enqueue/Migrate calls fail
// with ErrClosed. The backlog stays dequeueable so workers drain it.
// Closing twice is an error (ErrClosed), making shutdown bugs loud.
func (r *Runtime) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("%w: already closed", sched.ErrClosed)
	}
	r.closed = true
	return nil
}

// Closed reports whether Close was called.
func (r *Runtime) Closed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// AsScheduler adapts the runtime to the sched.Interface shape so existing
// Interface consumers can hold a runtime-driven instance. The now
// arguments of Enqueue/Dequeue are ignored — the runtime's clock is the
// authority (that is the point of runtime-driven construction); the
// packet still gets its Arrival stamped from the clock.
func (r *Runtime) AsScheduler() sched.Interface { return ifaceAdapter{r} }

type ifaceAdapter struct{ r *Runtime }

func (a ifaceAdapter) AddFlow(flow int, weight float64) error { return a.r.AddFlow(flow, weight) }
func (a ifaceAdapter) RemoveFlow(flow int) error              { return a.r.RemoveFlow(flow) }
func (a ifaceAdapter) Enqueue(_ float64, p *sched.Packet) error {
	return a.r.Enqueue(p)
}
func (a ifaceAdapter) Dequeue(_ float64) (*sched.Packet, bool) { return a.r.Dequeue() }
func (a ifaceAdapter) Len() int                                { return a.r.Len() }
func (a ifaceAdapter) QueuedBytes(flow int) float64            { return a.r.QueuedBytes(flow) }

// init wires runtime-driven construction into the sched registry:
// sched.New(name, sched.WithClock(...)) or WithShards(...) builds through
// here once internal/rt is imported.
func init() {
	sched.RegisterRuntimeBuilder(func(name string, cfg sched.Config) (sched.Interface, error) {
		r, err := NewFromConfig(name, cfg)
		if err != nil {
			return nil, err
		}
		return r.AsScheduler(), nil
	})
}
