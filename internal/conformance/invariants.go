package conformance

import (
	"fmt"
	"math"

	"repro/internal/fairness"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/sim"
)

// tol is the absolute+relative slack the checkers allow on each
// inequality: the bounds are exact in real arithmetic, so only float64
// rounding needs headroom.
func tol(scale float64) float64 { return 1e-9 + 1e-9*math.Abs(scale) }

// CheckAlignment asserts the correspondence the replay checkers rely on:
// the link transmits packets sequentially, so Monitor.ServiceRecords()[i]
// must be the packet of Trace.Deq[i] (same flow, same length).
func CheckAlignment(tr *Trace, mon *sim.Monitor) error {
	recs := mon.ServiceRecords()
	if len(tr.Deq) != len(recs) {
		return fmt.Errorf("alignment: %d dequeues but %d service records", len(tr.Deq), len(recs))
	}
	for i, st := range tr.Deq {
		r := recs[i]
		if r.Flow != st.P.Flow || r.Bytes != st.P.Length {
			return fmt.Errorf("alignment: record %d is flow %d/%v bytes, dequeue was flow %d/%v",
				i, r.Flow, r.Bytes, st.P.Flow, st.P.Length)
		}
	}
	return nil
}

// CheckConservation asserts that the run conserved packets: every
// enqueued packet was dequeued exactly once, nothing was invented, and
// the scheduler's Len/QueuedBytes counters returned to exactly zero.
func CheckConservation(tr *Trace, s sched.Interface, w Workload) error {
	if len(tr.Enq) != len(tr.Deq) {
		return fmt.Errorf("conservation: %d enqueued, %d dequeued", len(tr.Enq), len(tr.Deq))
	}
	seen := make(map[*sched.Packet]bool, len(tr.Enq))
	for _, st := range tr.Enq {
		seen[st.P] = true
	}
	for i, st := range tr.Deq {
		if !seen[st.P] {
			return fmt.Errorf("conservation: dequeue %d returned a packet never enqueued (flow %d) or twice", i, st.P.Flow)
		}
		delete(seen, st.P)
	}
	if s.Len() != 0 {
		return fmt.Errorf("conservation: Len() = %d after drain", s.Len())
	}
	for _, f := range w.Flows {
		if b := s.QueuedBytes(f.Flow); b != 0 {
			return fmt.Errorf("conservation: flow %d QueuedBytes = %v after drain", f.Flow, b)
		}
	}
	return nil
}

// CheckPerFlowFIFO asserts that each flow's packets were served in
// arrival order (Seq strictly increasing in dequeue order).
func CheckPerFlowFIFO(tr *Trace) error {
	lastSeq := make(map[int]int64)
	for i, st := range tr.Deq {
		if prev, ok := lastSeq[st.P.Flow]; ok && st.P.Seq <= prev {
			return fmt.Errorf("per-flow FIFO: dequeue %d served flow %d seq %d after seq %d",
				i, st.P.Flow, st.P.Seq, prev)
		}
		lastSeq[st.P.Flow] = st.P.Seq
	}
	return nil
}

// CheckDeqTagMonotone asserts that key(p) is non-decreasing over the
// dequeue order. For SFQ the key is the start tag (its virtual time v is
// the popped start tag, so this is exactly virtual-time monotonicity);
// for SCFQ it is the finish tag.
func CheckDeqTagMonotone(tr *Trace, name string, key func(*sched.Packet) float64) error {
	prev := math.Inf(-1)
	for i, st := range tr.Deq {
		k := key(st.P)
		if k < prev-tol(prev) {
			return fmt.Errorf("%s monotonicity: dequeue %d has tag %v after %v", name, i, k, prev)
		}
		if k > prev {
			prev = k
		}
	}
	return nil
}

// CheckSRPTService asserts the SRPT discipline: every dequeue serves a
// flow whose queued backlog (in bytes, the PIFO layer's remaining-service
// proxy) is minimal among the backlogged flows at that instant. The
// backlog is reconstructed by merging the enqueue and dequeue streams on
// the recorder's operation counter — the exact interleaving the scheduler
// saw — and replaying the same additions and subtractions the scheduler's
// own byte accounting performs, so the comparison is float-exact. Ties are
// allowed: equal backlogs may be served in either order.
func CheckSRPTService(tr *Trace) error {
	bytes := make(map[int]float64)
	count := make(map[int]int)
	ei := 0
	for di, st := range tr.Deq {
		for ei < len(tr.Enq) && tr.Enq[ei].Op < st.Op {
			p := tr.Enq[ei].P
			bytes[p.Flow] += p.Length
			count[p.Flow]++
			ei++
		}
		served := st.P.Flow
		for flow, b := range bytes {
			if flow != served && count[flow] > 0 && b < bytes[served] {
				return fmt.Errorf("SRPT: dequeue %d served flow %d with %v B backlogged while flow %d had only %v B",
					di, served, bytes[served], flow, b)
			}
		}
		bytes[served] -= st.P.Length
		count[served]--
		if count[served] == 0 {
			bytes[served] = 0 // mirror the flow core: a drained flow carries no float residue
		}
	}
	return nil
}

// CheckStrictPriority asserts strict, non-preemptive priority: every
// dequeue serves a packet whose level is the lowest among the packets
// queued at that instant, level(flow) giving each flow's level (lower
// goes first). The queue is replayed from the enqueue and dequeue streams
// merged on the recorder's operation counter, as CheckSRPTService does.
func CheckStrictPriority(tr *Trace, level func(flow int) int) error {
	queued := make(map[int]int) // level -> packets queued
	ei := 0
	for di, st := range tr.Deq {
		for ei < len(tr.Enq) && tr.Enq[ei].Op < st.Op {
			queued[level(tr.Enq[ei].P.Flow)]++
			ei++
		}
		served := level(st.P.Flow)
		for l, n := range queued {
			if n > 0 && l < served {
				return fmt.Errorf("strict priority: dequeue %d served flow %d at level %d while %d packets waited at level %d",
					di, st.P.Flow, served, n, l)
			}
		}
		queued[served]--
	}
	return nil
}

// CheckAggregateFIFO asserts FIFO across the whole aggregate, not just
// within flows: the i-th packet served is the i-th packet enqueued. This
// is what FIFO+ must degenerate to at a single hop when every packet
// carries zero accumulated slack — its rank is then the arrival clock,
// nondecreasing over the run, so the PIFO pops in push order.
func CheckAggregateFIFO(tr *Trace) error {
	if len(tr.Enq) != len(tr.Deq) {
		return fmt.Errorf("aggregate FIFO: %d enqueues but %d dequeues", len(tr.Enq), len(tr.Deq))
	}
	for i := range tr.Deq {
		e, d := tr.Enq[i].P, tr.Deq[i].P
		if d != e {
			return fmt.Errorf("aggregate FIFO: dequeue %d served flow %d seq %d; arrival order says flow %d seq %d",
				i, d.Flow, d.Seq, e.Flow, e.Seq)
		}
	}
	return nil
}

// CheckWorkConserving asserts the server never idled while packets were
// queued: whenever a transmission ended with backlog remaining, the next
// transmission started immediately, and transmissions never overlapped.
func CheckWorkConserving(tr *Trace, mon *sim.Monitor) error {
	recs := mon.ServiceRecords()
	for i := 0; i+1 < len(recs); i++ {
		end, next := recs[i].End, recs[i+1].Start
		if next < end-tol(end) {
			return fmt.Errorf("work conservation: transmission %d starts at %v before %d ends at %v",
				i+1, next, i, end)
		}
		if next <= end+tol(end) {
			continue // back-to-back: fine either way
		}
		// Idle gap: legal only if nothing was queued at `end`.
		arrived := 0
		for _, st := range tr.Enq {
			if st.Now <= end+tol(end) {
				arrived++
			}
		}
		if arrived > i+1 {
			return fmt.Errorf("work conservation: %d packets arrived by %v but only %d served and next start is %v",
				arrived, end, i+1, next)
		}
	}
	return nil
}

// CheckTheorem1 asserts the fairness bound for every pair of flows: over
// every (t1, t2) busy-interval pair in which both flows are backlogged,
// |W_f/r_f − W_m/r_m| <= bound(l_f^max, r_f, l_m^max, r_m). Pass
// qos.SFQFairnessBound for the SFQ/SCFQ/WFQ family and
// qos.DRRFairnessBound-style closures for others. The fairness package
// finds the largest such difference exactly, in one pass.
func CheckTheorem1(mon *sim.Monitor, w Workload, bound func(lf, rf, lm, rm float64) float64) error {
	for i, f := range w.Flows {
		for _, m := range w.Flows[i+1:] {
			lf, lm := w.Lmax(f.Flow), w.Lmax(m.Flow)
			if lf == 0 || lm == 0 {
				continue // a flow that never sends has no backlogged interval
			}
			h := fairness.MonitorUnfairness(mon, f.Flow, m.Flow, f.Weight, m.Weight)
			b := bound(lf, f.Weight, lm, m.Weight)
			if h > b+tol(b) {
				return fmt.Errorf("Theorem 1: H(%d,%d) = %v exceeds bound %v", f.Flow, m.Flow, h, b)
			}
		}
	}
	return nil
}

// CheckTheorem2 asserts the SFQ throughput guarantee at a constant-rate
// server (an FC server with δ = 0): for every flow f and every (t1, t2)
// pair within a backlogged interval of f,
//
//	W_f(t1,t2) >= r_f·(t2−t1) − r_f·(Σ l_n^max)/C − l_f^max.
//
// The service deficit r_f·(t2−t1) − W_f grows (at r_f) while f is not in
// service and shrinks (at C − r_f >= 0) while it is, so over each
// backlogged interval its maxima over t1 lie at the ends of f's service
// periods (and the interval start) and its maxima over t2 at their starts
// (and the interval end). All O(n²) such pairs are checked; at every one
// the completed-bytes sum equals the true fluid W exactly, so the check
// is precisely the theorem — neither weaker nor stronger.
func CheckTheorem2(mon *sim.Monitor, w Workload) error {
	sumLmax := 0.0
	for _, f := range w.Flows {
		sumLmax += w.Lmax(f.Flow)
	}
	all := mon.ServiceRecords()
	for _, f := range w.Flows {
		rf, lfmax := f.Weight, w.Lmax(f.Flow)
		slack := rf*sumLmax/w.C + lfmax
		for _, iv := range mon.BackloggedIntervals(f.Flow) {
			// Per-flow records inside the interval, in service order.
			var recs []sim.ServiceRecord
			for _, r := range all {
				if r.Flow == f.Flow && r.Start >= iv.Start-tol(iv.Start) && r.End <= iv.End+tol(iv.End) {
					recs = append(recs, r)
				}
			}
			// t1 = iv.Start (j = −1) or End_j; counted packets are j+1….
			for j := -1; j < len(recs); j++ {
				t1 := iv.Start
				if j >= 0 {
					t1 = recs[j].End
				}
				wBytes := 0.0
				for m := j + 1; m <= len(recs); m++ {
					// t2 = Start_m (packets j+1..m−1 fully served) or iv.End.
					t2 := iv.End
					if m < len(recs) {
						t2 = recs[m].Start
					}
					if t2 > t1 {
						if need := rf*(t2-t1) - slack; wBytes < need-tol(need) {
							return fmt.Errorf("Theorem 2: flow %d W(%v,%v) = %v < %v",
								f.Flow, t1, t2, wBytes, need)
						}
					}
					if m < len(recs) {
						wBytes += recs[m].Bytes
					}
				}
			}
		}
	}
	return nil
}

// eatChain computes each enqueued packet's expected arrival time (eq 37)
// from the trace, using the flow weight as the reserved rate.
func eatChain(tr *Trace, w Workload) map[*sched.Packet]float64 {
	weights := make(map[int]float64, len(w.Flows))
	for _, f := range w.Flows {
		weights[f.Flow] = f.Weight
	}
	chains := make(map[int]*qos.EAT)
	eats := make(map[*sched.Packet]float64, len(tr.Enq))
	for _, st := range tr.Enq {
		ch, ok := chains[st.P.Flow]
		if !ok {
			ch = &qos.EAT{}
			chains[st.P.Flow] = ch
		}
		r := sched.EffRate(st.P, weights[st.P.Flow])
		eats[st.P] = ch.Next(st.Now, st.P.Length, r)
	}
	return eats
}

// sumOtherLmax returns Σ_{n≠f} l_n^max over the workload's flows.
func sumOtherLmax(w Workload, flow int) float64 {
	sum := 0.0
	for _, f := range w.Flows {
		if f.Flow != flow {
			sum += w.Lmax(f.Flow)
		}
	}
	return sum
}

// CheckTheorem4Delay asserts the SFQ single-server delay guarantee at a
// constant-rate server (Theorem 4 with δ = 0, Σ r_n <= C): every packet
// departs by EAT + Σ_{n≠f} l_n^max/C + l_f^j/C.
func CheckTheorem4Delay(tr *Trace, mon *sim.Monitor, w Workload) error {
	eats := eatChain(tr, w)
	if err := CheckAlignment(tr, mon); err != nil {
		return err
	}
	recs := mon.ServiceRecords()
	for i, st := range tr.Deq {
		end := recs[i].End
		bound := eats[st.P] + sumOtherLmax(w, st.P.Flow)/w.C + st.P.Length/w.C
		if end > bound+tol(bound) {
			return fmt.Errorf("Theorem 4: flow %d packet %d departs at %v after bound %v",
				st.P.Flow, st.P.Seq, end, bound)
		}
	}
	return nil
}

// CheckSCFQDelay asserts the SCFQ single-server delay bound of eq (56)
// at a constant-rate server: every packet departs by
// EAT + Σ_{n≠f} l_n^max/C + l_f^j/r_f.
func CheckSCFQDelay(tr *Trace, mon *sim.Monitor, w Workload) error {
	weights := make(map[int]float64, len(w.Flows))
	for _, f := range w.Flows {
		weights[f.Flow] = f.Weight
	}
	eats := eatChain(tr, w)
	if err := CheckAlignment(tr, mon); err != nil {
		return err
	}
	recs := mon.ServiceRecords()
	for i, st := range tr.Deq {
		end := recs[i].End
		bound := qos.SCFQDelayBound(w.C, eats[st.P], st.P.Length,
			sched.EffRate(st.P, weights[st.P.Flow]), sumOtherLmax(w, st.P.Flow))
		if end > bound+tol(bound) {
			return fmt.Errorf("eq 56: flow %d packet %d departs at %v after bound %v",
				st.P.Flow, st.P.Seq, end, bound)
		}
	}
	return nil
}

// CheckDelayBound asserts an EAT-based per-packet departure deadline:
// every packet must finish transmission by bound(eat, p, r_f), where eat
// follows the chain of eq (37) at the packet's effective rate. Table 1's
// WFQ/Virtual Clock/Fair Airport delay guarantees all have this shape.
func CheckDelayBound(tr *Trace, mon *sim.Monitor, w Workload, name string,
	bound func(eat float64, p *sched.Packet, rf float64) float64) error {
	if err := CheckAlignment(tr, mon); err != nil {
		return err
	}
	weights := make(map[int]float64, len(w.Flows))
	for _, f := range w.Flows {
		weights[f.Flow] = f.Weight
	}
	eats := eatChain(tr, w)
	recs := mon.ServiceRecords()
	for i, st := range tr.Deq {
		b := bound(eats[st.P], st.P, weights[st.P.Flow])
		if end := recs[i].End; end > b+tol(b) {
			return fmt.Errorf("%s: flow %d packet %d departs at %v after bound %v",
				name, st.P.Flow, st.P.Seq, end, b)
		}
	}
	return nil
}

// CheckPGPS differentially tests a WFQ run against the fluid GPS oracle
// via the PGPS theorem: on a constant-rate link of the same capacity the
// reference system assumes, every packet finishes no later than its GPS
// fluid finish time plus l_max/C (l_max the largest packet at the
// server). This catches both tag-computation and ordering bugs.
func CheckPGPS(tr *Trace, mon *sim.Monitor, w Workload) error {
	weights := make(map[int]float64, len(w.Flows))
	lmax := 0.0
	for _, f := range w.Flows {
		weights[f.Flow] = f.Weight
		if l := w.Lmax(f.Flow); l > lmax {
			lmax = l
		}
	}
	fluid := make(map[[2]int]float64, len(w.Arrivals)) // (flow, per-flow idx) -> finish
	for _, d := range FluidGPS(w.C, weights, w.Arrivals) {
		fluid[[2]int{d.Flow, d.Seq}] = d.Finish
	}
	if err := CheckAlignment(tr, mon); err != nil {
		return err
	}
	recs := mon.ServiceRecords()
	idx := make(map[int]int)
	for i, st := range tr.Deq {
		k := idx[st.P.Flow]
		idx[st.P.Flow]++
		gf, ok := fluid[[2]int{st.P.Flow, k}]
		if !ok {
			return fmt.Errorf("PGPS: no fluid departure for flow %d packet #%d", st.P.Flow, k)
		}
		bound := gf + lmax/w.C
		if end := recs[i].End; end > bound+tol(bound) {
			return fmt.Errorf("PGPS: flow %d packet #%d finishes at %v after GPS+lmax/C bound %v",
				st.P.Flow, k, end, bound)
		}
	}
	return nil
}
