package pifo

import (
	"math"

	"repro/internal/sched"
)

// This file re-expresses the repository's tag-based disciplines as PIFO
// rank functions. Each is required — and tested, by the conformance
// differential sweeps and the flowcore digest pins — to be *bit-identical*
// to its hand-written counterpart (internal/core SFQ, internal/sched
// SCFQ/WFQ/VirtualClock/EDD), which constrains more than the math: the
// float operations must run in the same order on the same values, the
// Queue must consume exactly one push serial per packet, and tags must be
// stamped (or left zero) exactly as the original does.

// SFQ is Start-time Fair Queuing (eqs 4–5) as a rank function: rank is the
// start tag, v follows the packet in service, and the busy-period end
// jumps v to the maximum serviced finish tag. tie selects the Section 2.3
// tie-breaking rule, exactly as core.NewTie does.
func SFQ(tie sched.TieBreak) Discipline {
	return Discipline{
		Name: "pifo-sfq",
		Rank: func(st *State, f *Flow, r float64, p *sched.Packet) (float64, float64) {
			start := math.Max(st.V, f.LastFinish)
			finish := start + p.Length/r
			p.VirtualStart = start
			p.VirtualFinish = finish
			f.LastFinish = finish
			sub := 0.0
			if tie == sched.TieLowWeightFirst {
				sub = r
			}
			return start, sub
		},
		OnServe: func(st *State, p *sched.Packet) {
			st.busy = true
			st.V = p.VirtualStart
			if p.VirtualFinish > st.maxFinish {
				st.maxFinish = p.VirtualFinish
			}
		},
		OnIdle: selfClockedIdle,
	}
}

// SCFQ is Self-Clocked Fair Queuing: the same tag recurrence as SFQ but
// ranked by *finish* tag, with v approximated by the finish tag of the
// packet in service.
func SCFQ() Discipline {
	return Discipline{
		Name: "pifo-scfq",
		Rank: func(st *State, f *Flow, r float64, p *sched.Packet) (float64, float64) {
			start := math.Max(st.V, f.LastFinish)
			finish := start + p.Length/r
			p.VirtualStart = start
			p.VirtualFinish = finish
			f.LastFinish = finish
			return finish, 0
		},
		OnServe: func(st *State, p *sched.Packet) {
			st.busy = true
			st.V = p.VirtualFinish
			if p.VirtualFinish > st.maxFinish {
				st.maxFinish = p.VirtualFinish
			}
		},
		OnIdle: selfClockedIdle,
	}
}

// selfClockedIdle is step 2 of the self-clocked algorithms: at the end of
// a busy period v becomes the maximum finish tag assigned to any serviced
// packet.
func selfClockedIdle(st *State) {
	if st.busy {
		st.busy = false
		st.V = st.maxFinish
	}
}

// VClock is Zhang's Virtual Clock: rank is the stamp EAT + l/r (eq 37),
// with no system virtual time at all — the expected-arrival chain is
// per-flow, which is exactly what makes it punish flows that used idle
// bandwidth (Section 1.1).
func VClock() Discipline {
	return Discipline{
		Name: "pifo-vclock",
		Rank: func(st *State, f *Flow, r float64, p *sched.Packet) (float64, float64) {
			// Times are nonnegative in this repository, so max(now, EAT)
			// with EAT's zero value reproduces the hand-written "first
			// packet gets eat = now" case exactly.
			eat := math.Max(st.Now, f.EAT)
			stamp := eat + p.Length/r
			p.VirtualStart = eat
			p.VirtualFinish = stamp
			f.EAT = stamp
			return stamp, 0
		},
	}
}

// EDD is Delay EDD (eq 66): rank is the deadline EAT + d_f. Flows
// registered through AddFlow get d_f = 0, matching sched.EDD.AddFlow; the
// original's AddFlowDeadline has no registry spelling for either
// implementation.
func EDD() Discipline {
	return Discipline{
		Name: "pifo-edd",
		Rank: func(st *State, f *Flow, r float64, p *sched.Packet) (float64, float64) {
			eat := math.Max(st.Now, f.EAT)
			f.EAT = eat + p.Length/r
			p.Deadline = eat + f.Deadline
			return p.Deadline, 0
		},
	}
}

// WFQ is Weighted Fair Queuing (PGPS): tags are computed against the fluid
// GPS virtual time (eqs 1–3) and the rank is the finish tag; byStart
// selects FQS (start-tag order) instead. The Advance hook runs the fluid
// system — the same gps instance the hand-written WFQ uses, via
// sched.GPSRef — before every rank computation and pop.
func WFQ(byStart bool) Discipline {
	name := "pifo-wfq"
	if byStart {
		name = "pifo-fqs"
	}
	return Discipline{
		Name:     name,
		NeedsGPS: true,
		Advance:  func(st *State, now float64) { st.GPS.Advance(now) },
		Rank: func(st *State, f *Flow, r float64, p *sched.Packet) (float64, float64) {
			start := math.Max(st.GPS.V(), f.LastFinish)
			finish := start + p.Length/r
			p.VirtualStart = start
			p.VirtualFinish = finish
			f.LastFinish = finish
			st.GPS.Arrive(f.ID(), finish)
			if byStart {
				return start, 0
			}
			return finish, 0
		},
	}
}
