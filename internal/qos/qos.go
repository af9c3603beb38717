// Package qos implements the analytical machinery of the paper: expected
// arrival times (eq 37), the fairness lower bound of Golestani (§1.2), the
// fairness bounds of Theorem 1, the throughput guarantee of Theorem 2,
// the single-server delay guarantee of Theorem 4 (and the SCFQ/WFQ
// comparisons of eqs 56–60), the end-to-end composition of Theorem 6 /
// Corollary 1, the FC-parameter recursion for hierarchical link sharing
// (eq 65), the delay-shifting condition (eq 73), and the Delay EDD
// schedulability test and bound of Theorem 7.
//
// Units follow the repository convention: bytes, bytes/second, seconds.
package qos

import (
	"errors"
	"math"

	"repro/internal/server"
)

// EAT tracks the expected arrival time chain of one flow (eq 37):
//
//	EAT(p^j, r^j) = max{ A(p^j), EAT(p^{j-1}, r^{j-1}) + l^{j-1}/r^{j-1} }
//
// with EAT(p^0, r^0) = −∞.
type EAT struct {
	next float64 // EAT(prev) + l_prev/r_prev
	init bool
}

// Next returns EAT(p^j) for a packet arriving at `arrival` with length
// `length` and rate `rate`, and advances the chain.
func (e *EAT) Next(arrival, length, rate float64) float64 {
	eat := arrival
	if e.init && e.next > arrival {
		eat = e.next
	}
	e.init = true
	e.next = eat + length/rate
	return eat
}

// FairnessLowerBound is Golestani's lower bound on the fairness measure of
// any packet scheduling algorithm (§1.2):
//
//	H(f,m) >= (l_f^max/r_f + l_m^max/r_m) / 2.
func FairnessLowerBound(lfMax, rf, lmMax, rm float64) float64 {
	return (lfMax/rf + lmMax/rm) / 2
}

// SFQFairnessBound is Theorem 1: for any interval in which flows f and m
// are both backlogged at an SFQ server (of any service-rate behaviour),
//
//	|W_f/r_f − W_m/r_m| <= l_f^max/r_f + l_m^max/r_m.
func SFQFairnessBound(lfMax, rf, lmMax, rm float64) float64 {
	return lfMax/rf + lmMax/rm
}

// SCFQFairnessBound equals the SFQ bound [8].
func SCFQFairnessBound(lfMax, rf, lmMax, rm float64) float64 {
	return SFQFairnessBound(lfMax, rf, lmMax, rm)
}

// DRRFairnessBound is the DRR fairness measure quoted in §1.2:
// 1 + l_f^max/r_f + l_m^max/r_m when min_n r_n = 1 (weights normalized so
// the smallest is one quantum unit).
func DRRFairnessBound(lfMax, rf, lmMax, rm float64) float64 {
	return 1 + lfMax/rf + lmMax/rm
}

// SFQThroughputBound is Theorem 2: the minimum service a flow backlogged
// throughout an interval of length dt receives from an SFQ FC server with
// Σ r_n <= C:
//
//	W_f >= r_f·dt − r_f·(Σ l_n^max)/C − r_f·δ/C − l_f^max.
//
// sumLmax is Σ_{n∈Q} l_n^max over every flow at the server.
func SFQThroughputBound(fc server.FCParams, rf, lfMax, sumLmax, dt float64) float64 {
	return rf*dt - rf*sumLmax/fc.C - rf*fc.Delta/fc.C - lfMax
}

// SFQThroughputFC is the FC characterization of the bandwidth guaranteed
// to a flow (or class) by an SFQ FC server — the recursion of eq (65) that
// powers the hierarchical analysis: the virtual server of class f is FC
// with parameters (r_f, r_f·Σl_n^max/C + r_f·δ/C + l_f^max).
func SFQThroughputFC(fc server.FCParams, rf, lfMax, sumLmax float64) server.FCParams {
	return server.FCParams{
		C:     rf,
		Delta: rf*sumLmax/fc.C + rf*fc.Delta/fc.C + lfMax,
	}
}

// SFQDelayBound is Theorem 4: at an SFQ FC server whose capacity is never
// exceeded (Σ R_n(v) <= C), packet p_f^j departs by
//
//	EAT(p_f^j) + Σ_{n≠f} l_n^max/C + l_f^j/C + δ/C.
//
// sumOtherLmax is Σ_{n∈Q, n≠f} l_n^max.
func SFQDelayBound(fc server.FCParams, eat, lj, sumOtherLmax float64) float64 {
	return eat + sumOtherLmax/fc.C + lj/fc.C + fc.Delta/fc.C
}

// SCFQDelayBound is the tight SCFQ bound of eq (56) for a constant-rate
// server: EAT + Σ_{n≠f} l_n^max/C + l_f^j/r_f^j.
func SCFQDelayBound(c, eat, lj, rj, sumOtherLmax float64) float64 {
	return eat + sumOtherLmax/c + lj/rj
}

// SCFQvsSFQDelayGap is eq (57): the extra maximum delay a packet can incur
// under SCFQ relative to SFQ at a constant-rate server, l/r − l/C. The
// paper's example: r = 64 Kb/s, l = 200 B, C = 100 Mb/s gives 24.4 ms.
func SCFQvsSFQDelayGap(c, lj, rj float64) float64 {
	return lj/rj - lj/c
}

// WFQDelayBound is the WFQ guarantee quoted in §2.3:
// EAT + l_f^j/r_f^j + l_max/C, where lmax is the maximum packet length at
// the server.
func WFQDelayBound(c, eat, lj, rj, lmax float64) float64 {
	return eat + lj/rj + lmax/c
}

// WFQvsSFQDelayGap is Δ(p_f^j) of eq (58): the reduction in maximum delay
// SFQ offers relative to WFQ,
//
//	Δ = l_f^j/r_f^j + l_max/C − Σ_{n≠f} l_n^max/C − l_f^j/C.
//
// Positive Δ means SFQ's bound is lower.
func WFQvsSFQDelayGap(c, lj, rj, lmax, sumOtherLmax float64) float64 {
	return lj/rj + lmax/c - sumOtherLmax/c - lj/c
}

// WFQvsSFQDelayGapUniform is eq (59), the uniform-packet-size special case
// with |Q| flows of packet length l: Δ = l/r_f − (|Q|−1)·l/C. By eq (60)
// it is non-negative exactly when r_f/C <= 1/(|Q|−1).
func WFQvsSFQDelayGapUniform(c, l, rf float64, q int) float64 {
	return l/rf - float64(q-1)*l/c
}

// CrossoverShare is eq (60): SFQ beats WFQ on maximum delay for flows
// whose share r_f/C is at most 1/(|Q|−1).
func CrossoverShare(q int) float64 {
	if q <= 1 {
		return math.Inf(1)
	}
	return 1 / float64(q-1)
}

// ServerSpec describes one hop for the end-to-end composition (eq 61
// form): the deterministic part β of its delay guarantee and the EBF tail
// parameters (B = 0 for deterministic/FC servers; λ = αC).
type ServerSpec struct {
	Beta   float64 // β^i: deterministic delay term, seconds
	B      float64 // tail prefactor (0 for FC)
	Lambda float64 // tail exponent in 1/seconds (ignored when B == 0)
	Prop   float64 // propagation delay to the next hop τ^{i,i+1}
}

// SFQServerSpec builds a hop spec from Theorem 4/5: β = Σ_{n≠f} l_n^max/C
// + l_f/C + δ/C; for an EBF server λ = α·C.
func SFQServerSpec(c, delta, lj, sumOtherLmax, b, alpha, prop float64) ServerSpec {
	return ServerSpec{
		Beta:   sumOtherLmax/c + lj/c + delta/c,
		B:      b,
		Lambda: alpha * c,
		Prop:   prop,
	}
}

// EndToEnd composes K hop specs per Corollary 1. It returns the
// deterministic part D of the end-to-end departure bound relative to
// EAT^1(p^j) — that is, L^K(p^j) <= EAT^1 + D + γ with probability at
// least 1 − B_tot·e^{−γ/Λ} — together with B_tot = Σ B^n and
// Λ = Σ 1/λ^n (so the tail exponent is 1/Λ). For all-FC paths B_tot = 0
// and the bound is deterministic.
func EndToEnd(hops []ServerSpec) (d, btot, lambdaInv float64) {
	for i, h := range hops {
		d += h.Beta
		if i < len(hops)-1 {
			d += h.Prop
		}
		if h.B > 0 {
			btot += h.B
			if h.Lambda > 0 {
				lambdaInv += 1 / h.Lambda
			}
		}
	}
	return d, btot, lambdaInv
}

// EndToEndTail evaluates the Corollary-1 tail: the probability the
// end-to-end departure exceeds EAT^1 + D + γ.
func EndToEndTail(btot, lambdaInv, gamma float64) float64 {
	if btot == 0 {
		return 0
	}
	if lambdaInv == 0 {
		return btot
	}
	p := btot * math.Exp(-gamma/lambdaInv)
	if p > 1 {
		return 1
	}
	return p
}

// LeakyBucketE2EDelay bounds the end-to-end delay of a (σ, ρ)-constrained
// flow across hops with rate r (Appendix A.5): d <= σ/r − l/r + D where D
// is the deterministic composition from EndToEnd. (The e^j <= σ/r result
// of [9] gives EAT^1 − A^1 <= σ/r − l/r.)
func LeakyBucketE2EDelay(sigma, rate, l, d float64) float64 {
	return sigma/rate - l/rate + d
}

// EDDFlowSpec describes a Delay EDD flow for the schedulability test.
type EDDFlowSpec struct {
	Rate     float64 // r_n, bytes/s
	Length   float64 // l_n, bytes (fixed packet size)
	Deadline float64 // d_n, seconds
}

// ErrNotSchedulable is returned when the EDD test fails.
var ErrNotSchedulable = errors.New("qos: Delay EDD flow set not schedulable")

// EDDSchedulable checks condition (67) of Theorem 7,
//
//	∀t>0:  Σ_n max{0, ceil((t−d_n)·r_n/l_n)}·l_n/C <= t,
//
// on the discrete grid of step points up to `horizon` (the condition is
// piecewise linear between the points where any ceil(...) increments, so
// checking at those breakpoints suffices).
func EDDSchedulable(flows []EDDFlowSpec, c, horizon float64) error {
	// Collect breakpoints: t = d_n + k·l_n/r_n for each flow.
	var points []float64
	for _, f := range flows {
		if f.Rate <= 0 || f.Length <= 0 || f.Deadline < 0 {
			return errors.New("qos: invalid EDD flow spec")
		}
		step := f.Length / f.Rate
		for t := f.Deadline; t <= horizon; t += step {
			points = append(points, t+1e-12) // just after each increment
		}
	}
	for _, t := range points {
		demand := 0.0
		for _, f := range flows {
			k := math.Ceil((t - f.Deadline) * f.Rate / f.Length)
			if k > 0 {
				demand += k * f.Length / c
			}
		}
		if demand > t+1e-9 {
			return ErrNotSchedulable
		}
	}
	return nil
}

// EDDDelayBound is Theorem 7: on a (C, δ) FC Delay EDD server satisfying
// (67), packet p_f^j completes by D(p_f^j) + l_max/C + δ/C.
func EDDDelayBound(fc server.FCParams, deadline, lmax float64) float64 {
	return deadline + lmax/fc.C + fc.Delta/fc.C
}

// DelayShiftImproves is condition (73): with Q flows of packet length l on
// a (C, δ) FC server partitioned into K classes, hierarchically scheduling
// a flow inside class i (with |Q_i| flows and class rate C_i) lowers its
// delay bound iff (|Q_i|+1)/(|Q|−K) < C_i/C.
func DelayShiftImproves(qi, q, k int, ci, c float64) bool {
	return float64(qi+1)/float64(q-k) < ci/c
}

// FADelayBound is Theorem 9: a Fair Airport server with minimum capacity C
// guarantees departure by EAT + l_f^j/r_f + l_max/C — the WFQ guarantee.
func FADelayBound(c, eat, lj, rf, lmax float64) float64 {
	return eat + lj/rf + lmax/c
}

// FAFairnessBound is Theorem 8: the FA unfairness over jointly backlogged
// intervals is at most 3(l_f^max/r_f + l_m^max/r_m) + 2·l_max/C.
func FAFairnessBound(c, lfMax, rf, lmMax, rm, lmax float64) float64 {
	return 3*(lfMax/rf+lmMax/rm) + 2*lmax/c
}
