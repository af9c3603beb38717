package liveops

import (
	"fmt"

	"repro/internal/sched"
)

// Action is a scheduled intervention on a running Swapper: after the
// AtOp'th schedule operation completes, Do receives the current inner
// scheduler and returns its replacement (or the same scheduler, for
// in-place mutations like SetWeight). A returned error stops all further
// actions and is surfaced on Swapper.Err; the inner scheduler keeps
// running unreplaced.
type Action struct {
	AtOp uint64
	Do   func(now float64, inner sched.Interface) (sched.Interface, error)
}

// SnapshotRestore is the kill-and-restore Action body: snapshot the inner
// scheduler, discard it, and continue on a fresh instance (built by mk)
// restored from the envelope — payload sidecar included.
func SnapshotRestore(mk func() sched.Interface) func(float64, sched.Interface) (sched.Interface, error) {
	return func(_ float64, inner sched.Interface) (sched.Interface, error) {
		snap, ok := inner.(sched.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("%w: %T does not support snapshots", sched.ErrBadState, inner)
		}
		return Clone(snap, mk)
	}
}

// Swapper wraps a scheduler and fires Actions at chosen points of the
// operation stream, transparently to the driver: a link (or conformance
// harness) scheduling through a Swapper cannot tell whether it is still
// talking to the original scheduler or to a restored (or otherwise
// replaced) one — which is precisely the property the liveops tests pin.
//
// Operations are counted like the conformance recorder counts events:
// every successful Enqueue and every Dequeue call (an empty Dequeue is a
// busy-period boundary, a legitimate failover point). Actions fire
// immediately after the operation with their AtOp count completes.
type Swapper struct {
	Inner   sched.Interface
	Actions []Action

	// Err records the first action failure; once set, no further actions
	// fire. The inner scheduler continues undisturbed.
	Err error

	ops uint64
}

// NewSwapper wraps inner with the given actions.
func NewSwapper(inner sched.Interface, actions ...Action) *Swapper {
	return &Swapper{Inner: inner, Actions: actions}
}

// Ops returns the number of schedule operations counted so far.
func (s *Swapper) Ops() uint64 { return s.ops }

func (s *Swapper) fire(now float64) {
	if s.Err != nil {
		return
	}
	for i := range s.Actions {
		a := &s.Actions[i]
		if a.Do == nil || a.AtOp != s.ops {
			continue
		}
		do := a.Do
		a.Do = nil // one-shot
		next, err := do(now, s.Inner)
		if err != nil {
			s.Err = err
			return
		}
		s.Inner = next
	}
}

// AddFlow delegates to the inner scheduler.
func (s *Swapper) AddFlow(flow int, weight float64) error { return s.Inner.AddFlow(flow, weight) }

// RemoveFlow delegates to the inner scheduler.
func (s *Swapper) RemoveFlow(flow int) error { return s.Inner.RemoveFlow(flow) }

// Enqueue delegates to the inner scheduler, counting successful enqueues
// as operations.
func (s *Swapper) Enqueue(now float64, p *sched.Packet) error {
	if err := s.Inner.Enqueue(now, p); err != nil {
		return err
	}
	s.ops++
	s.fire(now)
	return nil
}

// Dequeue delegates to the inner scheduler; every call counts as an
// operation (an empty pop marks a busy-period end).
func (s *Swapper) Dequeue(now float64) (*sched.Packet, bool) {
	p, ok := s.Inner.Dequeue(now)
	s.ops++
	s.fire(now)
	return p, ok
}

// Len delegates to the inner scheduler.
func (s *Swapper) Len() int { return s.Inner.Len() }

// QueuedBytes delegates to the inner scheduler.
func (s *Swapper) QueuedBytes(flow int) float64 { return s.Inner.QueuedBytes(flow) }

// PacketPoolSafe reports whether the current inner scheduler declares
// packet recycling safe (sched.PoolSafe).
func (s *Swapper) PacketPoolSafe() bool { return sched.PoolSafeScheduler(s.Inner) }
