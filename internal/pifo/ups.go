// Package pifo holds what is written against the rank-function scheduler
// (sched.PIFO, sched.Discipline, sched.Ranked — internal/sched/rank.go)
// from outside it: the UPS disciplines of Mittal et al. (*Universal Packet
// Scheduling*, PAPERS.md) in this file, the replay harness that asks the
// UPS question directly (pifo/replay), and their registry names. Each
// discipline is a few lines of rank function — the point of the PIFO model
// — and each exposes the knob UPS replay turns: a per-packet input
// (Packet.Slack) that upstream state, or a recorded schedule, can set.
package pifo

import "repro/internal/sched"

// LSTF is Least Slack Time First: a packet arrives carrying a slack — the
// time it can still afford to wait — and is ranked by now + slack, so the
// packet closest to running out of slack is served first. (Ranking by the
// absolute "slack deadline" is the standard arrival-time-invariant
// formulation: at any instant the smallest now + slack is also the
// smallest remaining slack, and the rank never changes while waiting.)
//
// Packets with no slack set fall back to the flow default 1/weight:
// heavier flows run urgent. Mittal et al. prove LSTF is the natural
// universal discipline — with slack initialized from a recorded schedule
// it reproduces that schedule (Theorem 1 there); pifo/replay measures
// exactly this, and the lstf conformance rows keep the discipline honest
// as an ordinary scheduler too.
func LSTF() sched.Discipline {
	return sched.Discipline{
		Name: "lstf",
		OnAddFlow: func(st *sched.RankState, f *sched.Flow) {
			f.Deadline = 1.0 / f.Weight
		},
		Rank: func(st *sched.RankState, f *sched.Flow, r float64, p *sched.Packet) (float64, float64) {
			slack := p.Slack
			if slack <= 0 {
				slack = f.Deadline
			}
			return st.Now + slack, 0
		},
		StampRank: true, // p.Deadline = the slack deadline actually queued under
	}
}

// SRPT is Shortest Remaining Processing Time at flow granularity: the flow
// with the least backlog (remaining service demand, in bytes) is served
// first, ties broken toward the lower flow id. The rank is *dynamic* —
// every enqueue and dequeue changes some flow's backlog — so packets are
// pushed under a constant key and the flow's competing rank is rewritten
// through PIFO.Rekey afterwards; per-flow FIFO order is untouched.
//
// Rank stamps p.Deadline with the flow's cumulative enqueued bytes: a
// strictly increasing per-flow sequence that makes the discipline's
// conformance tag-monotonicity row meaningful even though the service key
// itself is dynamic.
func SRPT() sched.Discipline {
	return sched.Discipline{
		Name: "srpt",
		Rank: func(st *sched.RankState, f *sched.Flow, r float64, p *sched.Packet) (float64, float64) {
			f.Cum += p.Length
			p.Deadline = f.Cum
			return 0, 0
		},
		AfterEnqueue: srptRefresh,
		AfterDequeue: srptRefresh,
	}
}

// srptRefresh rewrites f's competing rank to its current remaining
// backlog. After a dequeue that drained the flow it is a no-op (Rekey
// ignores idle flows).
func srptRefresh(st *sched.RankState, q *sched.PIFO, f *sched.Flow, p *sched.Packet) {
	q.Rekey(f, f.QueuedBytes(), float64(f.ID()))
}

// FIFOPlus is FIFO+ (Clark–Shenker–Zhang, via Mittal et al.): per-hop FIFO
// on adjusted arrival times. A packet carries in Slack the age it has
// accumulated upstream relative to its aggregate's average (zero at the
// first hop), and is ranked by now + slack — so a packet that has been
// unlucky so far jumps ahead of locally younger ones, keeping end-to-end
// jitter of an aggregate low. At a single hop with no upstream history the
// discipline degenerates to plain FIFO, which is exactly the per-hop
// "FIFO within aggregate" invariant conformance checks for it.
func FIFOPlus() sched.Discipline {
	return sched.Discipline{
		Name: "fifo+",
		Rank: func(st *sched.RankState, f *sched.Flow, r float64, p *sched.Packet) (float64, float64) {
			return st.Now + p.Slack, 0
		},
		StampRank: true, // p.Deadline = adjusted arrival time
	}
}
