package rt

import (
	"fmt"

	"repro/internal/sched"
)

// Accessors and operations that only tests use.

// FlowShard returns the shard flow is currently assigned to, or an
// ErrUnknownFlow error.
func (r *Runtime) FlowShard(flow int) (int, error) {
	r.mu.RLock()
	e := r.flows[flow]
	r.mu.RUnlock()
	if e == nil {
		return 0, fmt.Errorf("%w: %d", sched.ErrUnknownFlow, flow)
	}
	return int(e.shard.Load()), nil
}

// ReleaseFlow releases a flow's reservation and unregisters it from the
// runtime. The flow must be idle (ErrFlowBusy otherwise, per the
// Interface contract).
func (a *Admitter) ReleaseFlow(flow int) error {
	if err := a.rt.RemoveFlow(flow); err != nil {
		return err
	}
	if a.ctrl != nil {
		return a.ctrl.Release(flow)
	}
	return nil
}

// Shards returns the number of shards.
func (r *Runtime) Shards() int { return len(r.shards) }

// PoolSafe reports whether the underlying discipline drops packet
// references on Dequeue, i.e. whether callers may reuse dequeued packets
// for later enqueues (the zero-allocation steady state).
func (r *Runtime) PoolSafe() bool { return sched.PoolSafeScheduler(r.shards[0].sch) }

// Runtime returns the underlying fair-queue runtime (e.g. to attach an
// obs probe or read FlowAccount ledgers). Observe-only access: the
// admitter owns the queue's contents, and a packet enqueued on the
// runtime directly — rather than through Submit — is drained and
// discarded by dispatch, which only executes Ticket-carrying packets.
func (a *Admitter) Runtime() *Runtime { return a.rt }

// Seq returns the dispatch sequence number (1-based, total order across
// the admitter), or 0 if not dispatched yet.
func (t *Ticket) Seq() int64 { return t.seq.Load() }
