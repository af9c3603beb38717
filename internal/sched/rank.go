package sched

import "fmt"

// This file is the one implementation of the tag-based family: a PIFO
// (push-in-first-out) queue over the flow-indexed core (FlowQ / FlowHeap /
// FlowSet, DESIGN.md §12) and a scheduler, Ranked, that drives a rank
// function over it. SFQ, SCFQ, Virtual Clock, Delay EDD, WFQ, FQS, FIFO and
// the WFQ oracle are rank functions in rankfuncs.go; LSTF, SRPT and FIFO+
// are written against the same API from outside, in internal/pifo.
//
// The model follows *Programmable Packet Scheduling at Line Rate* (Sivaraman
// et al., PAPERS.md): a PIFO admits packets in arbitrary rank order and
// always releases the minimum-rank packet, so a scheduling discipline
// reduces to the function that computes each packet's rank on arrival —
// SFQ's start tag, SCFQ's and WFQ's finish tags, Virtual Clock's stamp,
// Delay EDD's deadline — plus a small virtual-time update on service.
//
// One deviation from an idealized PIFO is deliberate: the flow-indexed core
// owes its O(log B) complexity to per-flow rank monotonicity (only flow
// heads compete in the cross-flow heap), so PIFO *monotonizes* ranks — a
// rank below the flow's previous one is clamped up to it while the flow is
// backlogged. For the tag-based family the clamp provably never fires
// (each discipline's per-flow tags are nondecreasing, the same invariant
// the schedassert build asserts); for adversarial rank functions (the
// FuzzPIFORank generator) it turns undefined behaviour into a defined,
// testable one. Mittal et al. (*Universal Packet Scheduling*) make the
// equivalent assumption: a scheduling algorithm is feasible for replay iff
// it serves each flow in FIFO order — i.e. exactly when per-flow ranks are
// monotone.

// PIFO is the queue primitive: Push admits a packet anywhere in the order,
// Pop always releases the minimum (key, sub, push-serial). It is a thin
// veneer over FlowSet that adds the per-flow monotonizing clamp described
// above; the clamp's chain — the last pushed (post-clamp) rank — lives in
// the flow's record (Flow.LastKey/LastSub), so a push costs the one lookup
// that found the record. The zero value is ready to use.
type PIFO struct {
	fs      FlowSet
	clamped uint64
}

// PushFlow admits p for f under (key, sub). While the flow is backlogged a
// rank below the flow's previous one is clamped up to it (per-flow
// monotonicity); a drained flow starts a fresh chain. It returns the rank
// actually used and whether it was clamped. O(log B) when the flow was
// idle, O(1) otherwise.
func (q *PIFO) PushFlow(f *Flow, key, sub float64, p *Packet) (float64, float64, bool) {
	clamped := false
	if f.n > 0 && (key < f.LastKey || (key == f.LastKey && sub < f.LastSub)) {
		key, sub = f.LastKey, f.LastSub
		clamped = true
		q.clamped++
	}
	f.LastKey, f.LastSub = key, sub
	q.fs.PushFlow(f, key, sub, p)
	return key, sub, clamped
}

// Rekey rewrites the rank under which f currently competes (its head
// packet's rank) and restores heap order — the flow-level dynamic priority
// hook, used by SRPT whose remaining-backlog rank changes on every
// operation. It does not extend the flow's push chain: the clamp keeps
// tracking pushed ranks. No-op on an idle flow. O(log B).
func (q *PIFO) Rekey(f *Flow, key, sub float64) { q.fs.Rekey(f, key, sub) }

// Len returns the number of queued packets.
func (q *PIFO) Len() int { return q.fs.Len() }

// CheckSlots verifies the flow heap's slot-key invariant (fuzz harness).
func (q *PIFO) CheckSlots() error { return q.fs.CheckSlots() }

// Clamped returns how many pushes the monotonizing clamp has adjusted —
// zero for every discipline in this repository (tests assert it).
func (q *PIFO) Clamped() uint64 { return q.clamped }

// RankState is the scheduler-level context a discipline reads and updates:
// the clock of the current operation, the discipline's virtual time, and
// (for WFQ-style disciplines) the fluid GPS reference. The busy-period
// bookkeeping (maxFinish/busy) is the self-clocked schedulers' step 2: at
// the end of a busy period v jumps to the maximum finish tag serviced.
type RankState struct {
	Now float64 // real time of the operation in progress
	V   float64 // discipline-maintained system virtual time

	gps       *gps       // the fluid reference, non-nil only when the discipline sets NeedsGPS
	flows     *FlowTable // the scheduler's registry, whose records selfClockedIdle releases
	maxFinish float64
	busy      bool
}

// Discipline is a scheduling discipline expressed against the PIFO: a Rank
// function plus optional hooks. Only Rank is mandatory; everything else
// defaults to "no-op", which is exactly right for stateless ranks (FIFO+).
type Discipline struct {
	// Name names the discipline; "rank/"+Name is its snapshot kind, so two
	// disciplines whose queued ranks are not interchangeable (SFQ's two
	// tie rules included) must differ in name.
	Name string

	// Rank computes the PIFO rank (key, sub) for p arriving on flow f with
	// effective rate r (eq 36: per-packet rate if set, else the weight).
	// It may stamp tags on p and update f's chains — the union of what the
	// repository's disciplines chain per flow; each uses the fields its
	// recurrence needs. It runs after the Advance hook, so the virtual
	// time is current.
	Rank func(st *RankState, f *Flow, r float64, p *Packet) (key, sub float64)

	// OnServe is the virtual-time update hook: it fires when p is chosen
	// for service, just before the pop (SFQ sets v to p's start tag, SCFQ
	// to its finish tag).
	OnServe func(st *RankState, p *Packet)

	// OnIdle fires on a Dequeue that finds the queue empty — the end of a
	// busy period (the self-clocked disciplines jump v to maxFinish).
	OnIdle func(st *RankState)

	// Advance runs before every Enqueue's Rank and every Dequeue's pop,
	// moving time-driven state to now (WFQ's fluid GPS advance).
	Advance func(st *RankState, now float64)

	// AfterEnqueue / AfterDequeue fire after the queue operation, for
	// flow-level dynamic ranks (SRPT rewrites the flow's rank to its new
	// remaining backlog via PIFO.Rekey).
	AfterEnqueue func(st *RankState, q *PIFO, f *Flow, p *Packet)
	AfterDequeue func(st *RankState, q *PIFO, f *Flow, p *Packet)

	// OnAddFlow fires when a flow is registered or re-weighted, to derive
	// per-flow defaults (LSTF's default slack).
	OnAddFlow func(st *RankState, f *Flow)

	// NeedsGPS requests a fluid GPS reference at Config.AssumedCapacity;
	// construction fails without a finite positive capacity, and
	// SetCapacity changes it.
	NeedsGPS bool

	// StampRank copies the final — possibly clamped — primary key into
	// p.Deadline after the push, so the rank a packet was actually queued
	// under is observable (and checkable for per-flow monotonicity).
	StampRank bool
}

// Ranked drives a Discipline over a PIFO. It is the scheduler behind every
// tag-based registry name: O(log B) Enqueue/Dequeue in backlogged flows
// (one flow lookup per Enqueue, none per Dequeue) and zero steady-state
// allocations. The generality costs two indirect calls and the clamp's
// compare per packet — about 10 ns per enqueue+dequeue pair against a
// discipline written out by hand (DESIGN.md §13).
type Ranked struct {
	d    Discipline
	q    PIFO // its flow table is the registry, which the GPS reference reads weights from
	st   RankState
	last float64
}

// NewRanked builds a scheduler for d. cfg supplies the discipline-
// independent knobs; only AssumedCapacity is consumed here (when
// d.NeedsGPS), rank functions capture anything else at construction. It
// is how a registry factory turns a rank function into a scheduler — this
// package's, core's and pifo's, whose UPS rank functions live outside
// sched — so it stays exported beside New.
func NewRanked(d Discipline, cfg Config) (*Ranked, error) {
	if d.Rank == nil {
		return nil, fmt.Errorf("%w: discipline %q has no Rank function", ErrBadConfig, d.Name)
	}
	s := &Ranked{d: d}
	s.st.flows = &s.q.fs.FlowTable
	if d.NeedsGPS {
		if !positive(cfg.AssumedCapacity) {
			return nil, fmt.Errorf("%w: %s requires a finite WithAssumedCapacity > 0, got %v", ErrBadConfig, d.Name, cfg.AssumedCapacity)
		}
		s.attachFluid(cfg.AssumedCapacity)
	}
	return s, nil
}

// attachFluid gives s a fluid GPS reference at capacity c (0 for the WFQ
// oracle, whose Advance hook integrates C(t) instead).
func (s *Ranked) attachFluid(c float64) {
	s.st.gps = newGPS(c, &s.q.fs.FlowTable)
	s.q.fs.fluid = s.st.gps
}

// MustNewRanked is NewRanked for statically valid configurations; it
// panics on error. Factories and core.New use it for rank functions that
// need no capacity.
func MustNewRanked(d Discipline, cfg Config) *Ranked {
	s, err := NewRanked(d, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Clamped reports how many enqueues the per-flow monotonizing clamp has
// adjusted; zero for every discipline shipped in this repository.
func (s *Ranked) Clamped() uint64 { return s.q.Clamped() }

// V returns the system virtual time: the fluid GPS time for WFQ-style
// disciplines, the discipline-maintained v otherwise.
func (s *Ranked) V() float64 {
	if s.st.gps != nil {
		return s.st.gps.v
	}
	return s.st.V
}

// PacketPoolSafe reports that the scheduler retains no packet references
// after Dequeue, so links may recycle packets through a PacketPool.
func (s *Ranked) PacketPoolSafe() bool { return true }

// AddFlow registers flow (or re-weights it, keeping its tag chains — the
// same semantics as FlowTable.Add).
func (s *Ranked) AddFlow(flow int, weight float64) error {
	if err := s.q.fs.Add(flow, weight); err != nil {
		return err
	}
	if s.d.OnAddFlow != nil {
		s.d.OnAddFlow(&s.st, s.q.fs.Record(flow))
	}
	return nil
}

// RemoveFlow unregisters an idle flow — idle in the packet queue and, for
// GPS-backed disciplines, in the fluid system too. Its tag history is
// discarded, so a re-added flow starts a fresh chain (F(p_f^0) = 0).
func (s *Ranked) RemoveFlow(flow int) error { return s.q.fs.Remove(flow) }

// Enqueue ranks p and pushes it into the PIFO.
func (s *Ranked) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	f, err := s.q.fs.Lookup(p)
	if err != nil {
		return err
	}
	r := EffRate(p, f.Weight)
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
func (s *Ranked) Dequeue(now float64) (*Packet, bool) {
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
	if s.d.OnServe != nil {
		// The hook sees only the packet, which is the flow heap's minimum
		// already: run before the pop, its reads of the packet overlap the
		// pop's reads of the flow record and chunk.
		_, p := s.q.fs.heap.minHead()
		s.d.OnServe(&s.st, p)
	}
	p, f := s.q.fs.PopFlow()
	if s.d.AfterDequeue != nil {
		s.d.AfterDequeue(&s.st, &s.q, f, p)
	}
	s.q.fs.FinalizeDrains()
	return p, true
}

// Len returns the number of queued packets.
func (s *Ranked) Len() int { return s.q.Len() }

// QueuedBytes returns the bytes queued for flow (exactly zero when idle:
// the FlowQ byte accumulator resets on drain).
func (s *Ranked) QueuedBytes(flow int) float64 { return s.q.fs.QueuedBytes(flow) }
