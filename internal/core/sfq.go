// Package core implements the paper's contribution: the Start-time Fair
// Queuing (SFQ) scheduler of Section 2 — including the generalized
// per-packet rate allocation of Section 2.3 (eq 36) — and the hierarchical
// SFQ scheduler of Section 3.
//
// SFQ in one paragraph: every packet gets a start tag and a finish tag
//
//	S(p_f^j) = max{ v(A(p_f^j)), F(p_f^{j-1}) }          (eq 4)
//	F(p_f^j) = S(p_f^j) + l_f^j / r_f^j                  (eqs 5, 36)
//
// where v(t), the system virtual time, is the start tag of the packet in
// service at time t (and, at the end of a busy period, the maximum finish
// tag assigned to any serviced packet). Packets are transmitted in
// increasing order of start tags. Because v(t) is read off the packet in
// service rather than simulated from an assumed link capacity, SFQ remains
// fair no matter how the actual service rate fluctuates (Theorem 1 makes no
// assumption about the server), which is the property WFQ lacks (Example 2)
// and the property hierarchical link sharing requires (Example 3).
//
// Those three lines are the whole discipline, and they are written down
// once, as the rank function sched.RankSFQ; the scheduler that runs it
// (sched.Ranked) is the one shared by every tag-based discipline in the
// repository. This package names the paper's schedulers — New/NewTie, the
// hierarchical HSFQ — and registers them.
package core

import "repro/internal/sched"

// TieBreak selects the order of packets whose start tags are equal. The
// definition lives in internal/sched (it is part of the shared scheduler
// Config); the alias keeps core.TieFIFO / core.TieLowWeightFirst working.
type TieBreak = sched.TieBreak

// Tie-breaking rules (Section 2.3: "ties are broken arbitrarily; some tie
// breaking rules may be more desirable than others").
const (
	// TieFIFO breaks ties in arrival order (the default).
	TieFIFO = sched.TieFIFO
	// TieLowWeightFirst prefers the packet whose effective rate is
	// smaller, giving interactive low-throughput flows lower average
	// delay as suggested in Section 2.3.
	TieLowWeightFirst = sched.TieLowWeightFirst
)

// New returns an empty SFQ scheduler with FIFO tie-breaking.
func New() *sched.Ranked { return NewTie(TieFIFO) }

// NewTie returns an empty SFQ scheduler with the given tie-breaking rule:
// the shared rank-function scheduler (sched.Ranked) running sched.RankSFQ.
// Each flow has one record (sched.Flow: weight, FIFO, finish-tag chain)
// that Enqueue reaches with one lookup and Dequeue gets back from the heap
// of backlogged flows, so both cost O(log B) in backlogged flows — the
// complexity Section 2 claims — while serving exactly the order a
// packet-level heap would: start tags are nondecreasing within a flow
// (eq 4: S(p_f^{j+1}) ≥ F(p_f^j) > S(p_f^j)), so the earliest start tag is
// always at some flow's head.
func NewTie(tie TieBreak) *sched.Ranked {
	return sched.MustNewRanked(sched.RankSFQ(tie), sched.Config{})
}
