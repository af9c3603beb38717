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
// repository. This package registers the paper's schedulers — "sfq",
// "sfq-lowweight" and "hsfq", the hierarchical SFQ built by internal/hier —
// and keeps New for callers that want the concrete type.
package core

import "repro/internal/sched"

// New returns an empty SFQ scheduler with FIFO tie-breaking: the shared
// rank-function scheduler (sched.Ranked) running sched.RankSFQ, typed as
// *sched.Ranked. Each flow has one record (sched.Flow: weight, FIFO,
// finish-tag chain) that Enqueue reaches with one lookup and Dequeue gets
// back from the heap of backlogged flows, so both cost O(log B) in
// backlogged flows — the complexity Section 2 claims — while serving
// exactly the order a packet-level heap would: start tags are
// nondecreasing within a flow (eq 4: S(p_f^{j+1}) ≥ F(p_f^j) > S(p_f^j)),
// so the earliest start tag is always at some flow's head.
//
// It is what sched.New("sfq") builds. It stays beside the registry name
// because the benchmark ladder's base rung calls it, and it is the
// one-line constructor of the paper's scheduler the package examples show.
func New() *sched.Ranked { return sched.MustNewRanked(sched.RankSFQ(sched.TieFIFO), sched.Config{}) }
