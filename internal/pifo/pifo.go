// Package pifo layers a programmable PIFO (push-in-first-out) queue on the
// flow-indexed scheduling core (sched.FlowQ / sched.FlowHeap / sched.FlowSet,
// DESIGN.md §12) and re-expresses the repository's tag-based disciplines as
// small rank functions over it.
//
// The model follows *Programmable Packet Scheduling at Line Rate* (Sivaraman
// et al., PAPERS.md): a PIFO admits packets in arbitrary rank order and
// always releases the minimum-rank packet, so a scheduling discipline
// reduces to the function that computes each packet's rank on arrival —
// SFQ's start tag, SCFQ's and WFQ's finish tags, Virtual Clock's stamp,
// Delay EDD's deadline — plus a small virtual-time update on service. The
// same cheap extensibility is what *Universal Packet Scheduling* (Mittal et
// al., PAPERS.md) needs: LSTF, SRPT, and FIFO+ are a few lines each (ups.go),
// and the replay harness (pifo/replay) asks the UPS question directly.
//
// One deviation from an idealized PIFO is deliberate: the flow-indexed core
// owes its O(log B) complexity to per-flow rank monotonicity (only flow
// heads compete in the cross-flow heap), so Queue *monotonizes* ranks —
// a rank below the flow's previous one is clamped up to it while the flow
// is backlogged. For the tag-based family the clamp provably never fires
// (each discipline's per-flow tags are nondecreasing, the same invariant
// the schedassert build asserts), which is why the PIFO re-expressions stay
// bit-identical to the hand-written schedulers; for adversarial rank
// functions (the FuzzPIFORank generator) it turns undefined behaviour into
// a defined, testable one. Mittal et al. make the equivalent assumption:
// a scheduling algorithm is feasible for replay iff it serves each flow in
// FIFO order — i.e. exactly when per-flow ranks are monotone.
package pifo

import "repro/internal/sched"

// rank is a (key, sub) pair under the PIFO order: key first, then sub,
// then global push serial (the FlowSet supplies the serial).
type rank struct {
	key, sub float64
}

// below reports whether r sorts strictly before s, ignoring serials.
func (r rank) below(s rank) bool {
	if r.key != s.key {
		return r.key < s.key
	}
	return r.sub < s.sub
}

// Queue is the PIFO primitive: Push admits a packet anywhere in the order,
// Pop always releases the minimum (key, sub, push-serial). It is a thin
// veneer over sched.FlowSet that adds the per-flow monotonizing clamp
// described in the package comment; the clamp's chain — the last pushed
// (post-clamp) rank — lives in the flow's record (Flow.LastKey/LastSub),
// so a push costs the one lookup that found the record. The zero value is
// ready to use.
type Queue struct {
	fs      sched.FlowSet
	clamped uint64
}

// Push is PushFlow on flow's record, created on first sight.
func (q *Queue) Push(flow int, key, sub float64, p *sched.Packet) (float64, float64, bool) {
	return q.PushFlow(q.fs.Record(flow), key, sub, p)
}

// PushFlow admits p for f under (key, sub). While the flow is backlogged a
// rank below the flow's previous one is clamped up to it (per-flow
// monotonicity); a drained flow starts a fresh chain. It returns the rank
// actually used and whether it was clamped. O(log B) when the flow was
// idle, O(1) otherwise.
func (q *Queue) PushFlow(f *Flow, key, sub float64, p *sched.Packet) (float64, float64, bool) {
	r := rank{key: key, sub: sub}
	clamped := false
	if prev := (rank{key: f.LastKey, sub: f.LastSub}); f.Len() > 0 && r.below(prev) {
		r = prev
		clamped = true
		q.clamped++
	}
	f.LastKey, f.LastSub = r.key, r.sub
	q.fs.PushFlow(f, r.key, r.sub, p)
	return r.key, r.sub, clamped
}

// Pop removes and returns the minimum-rank packet, or nil when empty.
func (q *Queue) Pop() *sched.Packet { return q.fs.PopMin() }

// Min returns the packet Pop would release and its key, without removing
// it. Returns (nil, 0) when empty.
func (q *Queue) Min() (*sched.Packet, float64) { return q.fs.Peek() }

// SetFlowRank rewrites the rank under which flow currently competes (its
// head packet's rank) and restores heap order — the flow-level dynamic
// priority hook, used by SRPT whose remaining-backlog rank changes on
// every operation. It does not extend the flow's push chain: the clamp
// keeps tracking pushed ranks. No-op on an idle flow. O(log B).
func (q *Queue) SetFlowRank(flow int, key, sub float64) { q.fs.SetFlowKey(flow, key, sub) }

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.fs.Len() }

// FlowLen returns the number of packets queued for flow, in O(1).
func (q *Queue) FlowLen(flow int) int { return q.fs.FlowLen(flow) }

// FlowBytes returns the bytes queued for flow, in O(1) and exactly zero
// when the flow is idle.
func (q *Queue) FlowBytes(flow int) float64 { return q.fs.FlowBytes(flow) }

// Backlogged returns the number of flows holding packets.
func (q *Queue) Backlogged() int { return q.fs.Backlogged() }

// Drop discards flow's packets and clamp chain entirely.
func (q *Queue) Drop(flow int) { q.fs.Drop(flow) }

// CheckSlots verifies the flow heap's slot-key invariant (fuzz harness).
func (q *Queue) CheckSlots() error { return q.fs.CheckSlots() }

// Clamped returns how many pushes the monotonizing clamp has adjusted —
// zero for every discipline in this repository (tests assert it; see the
// package comment for why the tag-based family can never trip it).
func (q *Queue) Clamped() uint64 { return q.clamped }
