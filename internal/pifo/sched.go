package pifo

import (
	"fmt"

	"repro/internal/sched"
)

// State is the scheduler-level context a discipline reads and updates: the
// clock of the current operation, the discipline's virtual time, and (for
// WFQ-style disciplines) the fluid GPS reference. The busy-period
// bookkeeping (maxFinish/busy) mirrors the self-clocked schedulers' step 2:
// at the end of a busy period v jumps to the maximum finish tag serviced.
type State struct {
	Now float64 // real time of the operation in progress
	V   float64 // discipline-maintained system virtual time

	// GPS is the fluid reference system, non-nil only when the discipline
	// sets NeedsGPS (WFQ). It shares the scheduler's weights map.
	GPS *sched.GPSRef

	maxFinish float64
	busy      bool
}

// Flow is the per-flow context handed to rank functions: the scheduler's
// one record for the flow (registration, FIFO, tag chains, clamp chain).
// The chain fields are a union of what the repository's disciplines chain
// per flow; each rank function uses the ones its recurrence needs and
// ignores the rest.
type Flow = sched.Flow

// Discipline is a scheduling discipline expressed against the PIFO: a Rank
// function plus optional hooks. Only Rank is mandatory; everything else
// defaults to "no-op", which is exactly right for stateless ranks (FIFO+).
type Discipline struct {
	Name string

	// Rank computes the PIFO rank (key, sub) for p arriving on flow f with
	// effective rate r (eq 36: per-packet rate if set, else the weight).
	// It may stamp tags on p and update f's chains; it runs after the
	// Advance hook, so State.V / State.GPS are current.
	Rank func(st *State, f *Flow, r float64, p *sched.Packet) (key, sub float64)

	// OnServe is the virtual-time update hook: it fires when p is popped
	// for service (SFQ sets v to p's start tag, SCFQ to its finish tag).
	OnServe func(st *State, p *sched.Packet)

	// OnIdle fires on a Dequeue that finds the queue empty — the end of a
	// busy period (the self-clocked disciplines jump v to maxFinish).
	OnIdle func(st *State)

	// Advance runs before every Enqueue's Rank and every Dequeue's pop,
	// moving time-driven state to now (WFQ's fluid GPS advance).
	Advance func(st *State, now float64)

	// AfterEnqueue / AfterDequeue fire after the queue operation, for
	// flow-level dynamic ranks (SRPT rewrites the flow's rank to its new
	// remaining backlog via Queue.SetFlowRank).
	AfterEnqueue func(st *State, q *Queue, f *Flow, p *sched.Packet)
	AfterDequeue func(st *State, q *Queue, f *Flow, p *sched.Packet)

	// OnAddFlow fires when a flow is registered or re-weighted, to derive
	// per-flow defaults (LSTF's default slack).
	OnAddFlow func(st *State, f *Flow)

	// NeedsGPS requests a fluid GPS reference at Config.AssumedCapacity;
	// construction fails without a positive capacity.
	NeedsGPS bool

	// StampRank copies the final — possibly clamped — primary key into
	// p.Deadline after the push, so the rank a packet was actually queued
	// under is observable (and checkable for per-flow monotonicity).
	StampRank bool
}

// Sched drives a Discipline over a PIFO Queue; it implements
// sched.Interface with the same O(log B) Enqueue/Dequeue and zero
// steady-state allocations as the hand-written schedulers it re-expresses.
type Sched struct {
	d    Discipline
	q    Queue // its flow table is the registry; Weights is shared with the GPS reference
	st   State
	last float64
}

// New builds a scheduler for d. cfg supplies the discipline-independent
// knobs; only AssumedCapacity is consumed here (when d.NeedsGPS), rank
// functions capture anything else at construction.
func New(d Discipline, cfg sched.Config) (*Sched, error) {
	if d.Rank == nil {
		return nil, fmt.Errorf("%w: pifo discipline %q has no Rank function", sched.ErrBadConfig, d.Name)
	}
	s := &Sched{d: d}
	s.q.fs.FlowTable = sched.NewFlowTable()
	if d.NeedsGPS {
		if cfg.AssumedCapacity <= 0 {
			return nil, fmt.Errorf("%w: %s requires WithAssumedCapacity > 0", sched.ErrBadConfig, d.Name)
		}
		s.st.GPS = sched.NewGPSRef(cfg.AssumedCapacity, s.q.fs.Weights)
		s.q.fs.AttachFluid(s.st.GPS)
	}
	return s, nil
}

// MustNew is New for statically valid configurations; it panics on error.
func MustNew(d Discipline, cfg sched.Config) *Sched {
	s, err := New(d, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Discipline returns the discipline this scheduler runs (observability).
func (s *Sched) Discipline() string { return s.d.Name }

// Clamped reports how many enqueues the per-flow monotonizing clamp has
// adjusted; zero for every discipline shipped in this package.
func (s *Sched) Clamped() uint64 { return s.q.Clamped() }

// V returns the system virtual time: the fluid GPS time for WFQ-style
// disciplines, the discipline-maintained v otherwise.
func (s *Sched) V() float64 {
	if s.st.GPS != nil {
		return s.st.GPS.V()
	}
	return s.st.V
}

// PacketPoolSafe reports that the scheduler retains no packet references
// after Dequeue, so links may recycle packets through a PacketPool.
func (s *Sched) PacketPoolSafe() bool { return true }

// AddFlow registers flow (or re-weights it, keeping its tag chains — the
// same semantics as FlowTable.Add).
func (s *Sched) AddFlow(flow int, weight float64) error {
	if err := s.q.fs.Add(flow, weight); err != nil {
		return err
	}
	if s.d.OnAddFlow != nil {
		s.d.OnAddFlow(&s.st, s.q.fs.Registered(flow))
	}
	return nil
}

// RemoveFlow unregisters an idle flow — idle in the packet queue and, for
// GPS-backed disciplines, in the fluid system too (mirroring WFQ).
func (s *Sched) RemoveFlow(flow int) error { return s.q.fs.Remove(flow) }

// Enqueue ranks p and pushes it into the PIFO.
func (s *Sched) Enqueue(now float64, p *sched.Packet) error {
	if now < s.last {
		return sched.ErrTimeWentBack
	}
	s.last = now
	f, err := s.q.fs.Lookup(p)
	if err != nil {
		return err
	}
	r := sched.EffRate(p, f.Weight)
	if s.d.Advance != nil {
		s.d.Advance(&s.st, now)
	}
	s.st.Now = now
	key, sub := s.d.Rank(&s.st, f, r, p)
	key, _, _ = s.q.PushFlow(f, key, sub, p)
	if s.d.StampRank {
		p.Deadline = key
	}
	if s.d.AfterEnqueue != nil {
		s.d.AfterEnqueue(&s.st, &s.q, f, p)
	}
	return nil
}

// Dequeue pops the minimum-rank packet and runs the discipline's
// virtual-time update; an empty pop ends the busy period (OnIdle).
func (s *Sched) Dequeue(now float64) (*sched.Packet, bool) {
	if now > s.last {
		s.last = now
	}
	if s.d.Advance != nil {
		s.d.Advance(&s.st, now)
	}
	s.st.Now = now
	if s.q.Len() == 0 {
		if s.d.OnIdle != nil {
			s.d.OnIdle(&s.st)
		}
		s.q.fs.FinalizeDrains()
		return nil, false
	}
	p, f := s.q.fs.PopFlow()
	if s.d.OnServe != nil {
		s.d.OnServe(&s.st, p)
	}
	if s.d.AfterDequeue != nil {
		s.d.AfterDequeue(&s.st, &s.q, f, p)
	}
	s.q.fs.FinalizeDrains()
	return p, true
}

// Len returns the number of queued packets.
func (s *Sched) Len() int { return s.q.Len() }

// QueuedBytes returns the bytes queued for flow (exactly zero when idle:
// the FlowQ byte accumulator resets on drain).
func (s *Sched) QueuedBytes(flow int) float64 { return s.q.FlowBytes(flow) }
