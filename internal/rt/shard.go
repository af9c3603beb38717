package rt

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// ingressCap is the number of packets a shard's ingress holds. A producer
// that finds it full drains it itself, so it bounds how far producers run
// ahead of the shard's discipline, not what the shard may queue.
const ingressCap = 64

// slot is one pushed packet and the entry of its flow: the drain reads the
// flow's ledger off the entry instead of looking the flow up.
type slot struct {
	p *sched.Packet
	e *flowEntry
}

// ingress is the bounded queue producers push to without the shard lock.
// Its lock orders pushes, gives each its stamp and hands the whole buffer
// to the drain; it is always taken last, after any shard lock.
type ingress struct {
	mu    sync.Mutex
	n     int
	slots *[ingressCap]slot
	// last is the shard's clock, clamped monotone: every push stamp and
	// every dequeue time is taken from it under mu, so the discipline sees
	// its times in the order it sees its calls.
	last float64
	// queued counts the shard's packets, in the ingress or the discipline,
	// for the queue limit: pushes add under mu, dequeues subtract.
	queued atomic.Int64
}

// clamp returns t raised to the shard's last time, and makes it the last.
// Callers hold mu.
func (in *ingress) clamp(t float64) float64 {
	if t < in.last {
		t = in.last
	}
	in.last = t
	return t
}

// shard owns one discipline instance. The discipline, the ledger table and
// spare are guarded by mu; whoever holds mu drains the ingress into the
// discipline before using it, so every operation sees every packet pushed
// before it took the lock.
type shard struct {
	mu  sync.Mutex
	idx int
	sch sched.Interface
	// ledgers holds, by flow id, the entry whose acct[idx] is this shard's
	// ledger for that flow: the flow's own entry while it lives here, or
	// that of a removed flow this shard still drains.
	ledgers entryIndex
	spare   *[ingressCap]slot // the buffer the next drain swaps in
	probe   sched.Probe
	vtimer  sched.VirtualTimer
	y       *yielder

	_  [64]byte // keep the producers' ingress off the consumer's lines
	in ingress
}

func newShard(idx int, sch sched.Interface, y *yielder) *shard {
	sh := &shard{idx: idx, sch: sch, spare: new([ingressCap]slot), y: y}
	sh.in.slots = new([ingressCap]slot)
	return sh
}

// take empties the ingress, returning what it held; the caller holds mu and
// in.mu and admits the slots before it releases mu.
func (sh *shard) take() []slot {
	in := &sh.in
	if in.n == 0 {
		return nil
	}
	b := in.slots[:in.n]
	in.slots, sh.spare = sh.spare, in.slots
	in.n = 0
	return b
}

// drainAt moves the ingress into the discipline and returns the shard's
// time at t, clamped monotone, fixed in the same ingress hold as the take:
// a packet pushed after it is stamped no earlier. The caller holds mu.
func (sh *shard) drainAt(t float64) float64 {
	sh.y.yield(siteDrain)
	sh.y.lock(&sh.in.mu)
	b := sh.take()
	now := sh.in.clamp(t)
	sh.in.mu.Unlock()
	sh.admit(b, false)
	return now
}

// lock takes the shard lock and drains the ingress.
func (sh *shard) lock() {
	sh.y.lock(&sh.mu)
	sh.drainAt(math.Inf(-1))
}

// lockAll takes the shard lock and the ingress lock and drains the ingress
// under both: until in.mu is released no packet can be pushed here, which is
// what MigrateFlow, RemoveFlow and FlowAccount need.
func (sh *shard) lockAll() {
	sh.y.lock(&sh.mu)
	sh.y.yield(siteDrain)
	sh.y.lock(&sh.in.mu)
	sh.admit(sh.take(), true)
}

func (sh *shard) unlockAll() {
	sh.in.mu.Unlock()
	sh.mu.Unlock()
}

// admit enqueues drained slots on the discipline in push order, each at its
// push stamp, and counts them on the ledger their entry carries. held says
// whether the caller holds in.mu. The push checks everything a registered
// discipline refuses (TestDrainAcceptsWhatPushAccepts), so a refusal here
// is a discipline's own limit; the packet is dropped and counted as shed,
// which keeps the flow's ledger balanced.
func (sh *shard) admit(b []slot, held bool) {
	for i := range b {
		p, e := b[i].p, b[i].e
		b[i] = slot{}
		a := &e.acct[sh.idx]
		if err := sh.sch.Enqueue(p.Arrival, p); err != nil {
			if !held {
				sh.y.lock(&sh.in.mu)
			}
			a.Shed++
			a.ShedBytes += p.Length
			if !held {
				sh.in.mu.Unlock()
			}
			sh.in.queued.Add(-1)
			continue
		}
		a.Enqueued++
		a.EnqueuedBytes += p.Length
		if sh.probe != nil {
			sh.probe.OnEnqueue(p.Arrival, p)
			if sh.vtimer != nil {
				sh.probe.OnVirtualTime(p.Arrival, sh.vtimer.V())
			}
		}
	}
}

// dequeueLocked runs the discipline's dequeue at now under mu and counts
// the packet on this shard's ledger for its flow.
func (sh *shard) dequeueLocked(now float64) (*sched.Packet, bool) {
	p, ok := sh.sch.Dequeue(now)
	if !ok {
		return nil, false
	}
	if e := sh.ledgers.get(p.Flow); e != nil {
		a := &e.acct[sh.idx]
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

// keep makes e the holder of this shard's ledger for its flow, folding in
// the ledger an earlier registration of the same flow id left here. The
// caller holds mu, and no packet of e can be pushed here yet.
func (sh *shard) keep(e *flowEntry) {
	o := sh.ledgers.get(e.flow)
	if o == e {
		return
	}
	if o != nil {
		e.acct[sh.idx].add(&o.acct[sh.idx])
	}
	sh.ledgers.put(e)
}

// site names a point where the interleaving test may switch goroutines
// (yield_on.go); in the release build the yields compile to nothing.
type site uint8

const (
	sitePush    site = iota // before a push pass takes the ingress lock
	siteRecheck             // before the shard re-check under the ingress lock
	siteDrain               // before a drain takes the ingress lock
	siteMigrate             // between the steps of MigrateFlow
	siteRemove              // between the steps of RemoveFlow
	siteClose               // before Close drains a shard
)
