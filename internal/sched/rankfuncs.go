package sched

// The repository's tag-based disciplines, each as the rank function the
// paper's equations write down. Every one is pinned bit for bit — dequeue
// order and the tags stamped on every packet — by the flowcore digests
// (recorded from the packet-heap implementations these replaced), which
// constrains more than the math: the float operations must run in this
// order on these values, the PIFO must consume exactly one push serial per
// packet, and tags must be stamped (or left zero) exactly as written. The
// builtin max returns what math.Max does (±0, NaN, ±Inf included), inline.

// RankSFQ is Start-time Fair Queuing (eqs 4–5): rank is the start tag
// S = max{v, F_prev}, the finish tag is S + l/r (eq 36: r is the packet's
// own rate when it carries one), v follows the packet in service, and the
// busy-period end jumps v to the maximum serviced finish tag. tie selects
// the Section 2.3 tie-breaking rule; it shapes the queued sub keys, so the
// two rules are two disciplines by name (and snapshot kind).
func RankSFQ(tie TieBreak) Discipline {
	name := "sfq"
	if tie == TieLowWeightFirst {
		name = "sfq-lowweight"
	}
	return Discipline{
		Name: name,
		Rank: func(st *RankState, f *Flow, r float64, p *Packet) (float64, float64) {
			start := max(st.V, f.LastFinish)
			finish := start + p.Length/r
			p.VirtualStart = start
			p.VirtualFinish = finish
			f.LastFinish = finish
			sub := 0.0
			if tie == TieLowWeightFirst {
				sub = r
			}
			return start, sub
		},
		OnServe: func(st *RankState, p *Packet) {
			st.busy = true
			st.V = p.VirtualStart
			if p.VirtualFinish > st.maxFinish {
				st.maxFinish = p.VirtualFinish
			}
		},
		OnIdle: selfClockedIdle,
	}
}

// RankSCFQ is Self-Clocked Fair Queuing [4, 8]: the same tag recurrence as
// SFQ but ranked by *finish* tag, with v approximated by the finish tag of
// the packet in service. As cheap as SFQ, at the cost of the larger delay
// bound of eq (56) — the l_f/r_f term that start-tag ordering eliminates.
func RankSCFQ() Discipline {
	return Discipline{
		Name: "scfq",
		Rank: func(st *RankState, f *Flow, r float64, p *Packet) (float64, float64) {
			start := max(st.V, f.LastFinish)
			finish := start + p.Length/r
			p.VirtualStart = start
			p.VirtualFinish = finish
			f.LastFinish = finish
			return finish, 0
		},
		OnServe: func(st *RankState, p *Packet) {
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
func selfClockedIdle(st *RankState) {
	if st.busy {
		st.busy = false
		st.V = st.maxFinish
	}
}

// RankVClock is Zhang's Virtual Clock [22]: rank is the stamp EAT + l/r
// (eq 37), with no system virtual time at all — the expected-arrival chain
// is per-flow, which is exactly what makes it *unfair*: a flow that used
// idle bandwidth builds up future stamps and is punished when other flows
// return (Section 1.1). It is also the GSQ order inside Fair Airport.
func RankVClock() Discipline {
	return Discipline{
		Name: "vclock",
		Rank: func(st *RankState, f *Flow, r float64, p *Packet) (float64, float64) {
			// Times are nonnegative in this repository, so max(now, EAT)
			// with EAT's zero value gives a flow's first packet eat = now.
			eat := max(st.Now, f.EAT)
			stamp := eat + p.Length/r
			p.VirtualStart = eat
			p.VirtualFinish = stamp
			f.EAT = stamp
			return stamp, 0
		},
	}
}

// RankEDD is Delay EDD (eq 66): rank is the deadline EAT + d_f, with d_f
// in Flow.Deadline (zero for flows registered through plain AddFlow; see
// EDD.AddFlowDeadline). Theorem 7 bounds its lateness on an FC server by
// (l_max + δ(C)) / C when the schedulability condition (eq 67) holds.
func RankEDD() Discipline {
	return Discipline{
		Name: "edd",
		Rank: func(st *RankState, f *Flow, r float64, p *Packet) (float64, float64) {
			eat := max(st.Now, f.EAT)
			f.EAT = eat + p.Length/r
			p.Deadline = eat + f.Deadline
			return p.Deadline, 0
		},
	}
}

// RankWFQ is Weighted Fair Queuing (PGPS): tags are computed against the
// fluid GPS virtual time (eqs 1–3, gps.go) and the rank is the finish tag;
// byStart selects FQS [11] (start-tag order) instead. The Advance hook
// runs the fluid system at the assumed capacity before every rank
// computation and pop — Example 2 shows what happens when that capacity
// diverges from the real service rate.
func RankWFQ(byStart bool) Discipline {
	name := "wfq"
	if byStart {
		name = "fqs"
	}
	return Discipline{
		Name:     name,
		NeedsGPS: true,
		Advance:  func(st *RankState, now float64) { st.gps.advance(now) },
		Rank: func(st *RankState, f *Flow, r float64, p *Packet) (float64, float64) {
			start := max(st.gps.v, f.LastFinish)
			finish := start + p.Length/r
			p.VirtualStart = start
			p.VirtualFinish = finish
			f.LastFinish = finish
			st.gps.arrive(f.flow, finish)
			if byStart {
				return start, 0
			}
			return finish, 0
		},
	}
}

// RankFIFO is first-in first-out across all flows — the degenerate PIFO: a
// constant rank, so the push serial alone orders packets, and that is
// arrival order. It stamps nothing. It is the baseline of the paper's
// comparisons, the priority level Fig. 1 gives the video source, and the
// leaf queue of the link-sharing trees; weights are registered and unused.
func RankFIFO() Discipline {
	return Discipline{
		Name: "fifo",
		Rank: func(*RankState, *Flow, float64, *Packet) (float64, float64) { return 0, 0 },
	}
}

// RankPriority is strict, non-preemptive priority by flow id: rank is the
// id, so the lowest backlogged id goes first, and the push serial keeps
// each flow FIFO. Weights are registered and unused. At a hier discipline
// interior the flows are the children, so "priority(fifo,sfq)" serves its
// first child's traffic before its second's: Fig. 1 gives the video source
// priority over the TCP flows this way, and §2.3's residual experiment
// (σ, ρ) traffic over SFQ.
func RankPriority() Discipline {
	return Discipline{
		Name:      "priority",
		Rank:      func(_ *RankState, _ *Flow, _ float64, p *Packet) (float64, float64) { return float64(p.Flow), 0 },
		StampRank: true, // p.Deadline = the flow id, the rank p is queued under
	}
}

// The constructors below predate the registry; they remain because tests,
// experiments and examples call them, and return the one scheduler type.

// NewFIFO returns an empty FIFO scheduler. Prefer New("fifo").
func NewFIFO() *Ranked { return MustNewRanked(RankFIFO(), Config{}) }

// NewSCFQ returns an empty SCFQ scheduler. Prefer New("scfq").
func NewSCFQ() *Ranked { return MustNewRanked(RankSCFQ(), Config{}) }

// NewVirtualClock returns an empty Virtual Clock scheduler. Prefer
// New("vclock").
func NewVirtualClock() *Ranked { return MustNewRanked(RankVClock(), Config{}) }

// NewWFQ returns a WFQ scheduler emulating GPS at assumedCap bytes/s. It
// panics on a non-positive capacity, where New("wfq",
// WithAssumedCapacity(c)) returns ErrBadConfig.
func NewWFQ(assumedCap float64) *Ranked {
	return MustNewRanked(RankWFQ(false), Config{AssumedCapacity: assumedCap})
}

// NewWFQOracle returns the §1.2 thought experiment made concrete: WFQ whose
// fluid reference integrates the *actual* capacity C(t) = rateAt(t) in
// fixed steps of step seconds (eq 3 with C replaced by C(t)). Given a
// perfect rate oracle it restores fairness on variable-rate servers — at
// the cost the paper warns about: the fluid clock must numerically
// integrate C(t), and a real scheduler has no such oracle for a
// flow-controlled or CPU-limited link. It exists for the ablation that
// shows SFQ gets the same fairness with none of this machinery. It assumes
// no capacity, so SetCapacity returns ErrNoCapacityKnob.
func NewWFQOracle(rateAt func(t float64) float64, step float64) *Ranked {
	if rateAt == nil || !positive(step) {
		panic("sched: WFQOracle needs a rate function and a positive step")
	}
	d := RankWFQ(false)
	d.Name = "wfq-oracle"
	d.NeedsGPS = false
	d.Advance = func(st *RankState, now float64) { st.gps.integrate(now, rateAt, step) }
	s := MustNewRanked(d, Config{})
	s.attachFluid(0)
	return s
}

// EDD is the Delay EDD scheduler with its one discipline-specific
// registration call; everything else is the embedded Ranked. Delay EDD
// decouples delay from throughput allocation, which is why the
// hierarchical scheduler of Section 3 hands classes that need that
// separation to it.
type EDD struct{ *Ranked }

// NewEDD returns an empty Delay EDD scheduler (what New("edd") builds).
func NewEDD() EDD { return EDD{MustNewRanked(RankEDD(), Config{})} }

// AddFlowDeadline registers flow with reserved rate (bytes/second) and
// per-packet delay bound d (seconds); plain AddFlow leaves d_f as it is
// (zero for a new flow).
//
// Calling it again re-registers the flow with new parameters; changes
// apply to packets that arrive afterwards. Each flow's packets are served
// strictly in arrival order (per-flow deadlines are nondecreasing when d_f
// is stable, since EAT advances by l/r per packet), so shrinking d_f while
// the flow is backlogged does not let the new packet overtake the flow's
// queued ones — the PIFO's clamp holds its rank at the flow's previous one,
// and its lower deadline takes effect against *other* flows from the
// flow's next busy period.
func (s EDD) AddFlowDeadline(flow int, rate, d float64) error {
	if d < 0 {
		return ErrBadWeight
	}
	if err := s.AddFlow(flow, rate); err != nil {
		return err
	}
	s.q.fs.Registered(flow).Deadline = d
	return nil
}
