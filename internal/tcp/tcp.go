// Package tcp implements a simplified TCP Reno endpoint pair over the
// simulator: slow start, congestion avoidance, fast retransmit after three
// duplicate ACKs, fast recovery, and Jacobson/Karn RTO estimation with
// exponential backoff.
//
// The Fig 1 experiment of the paper runs two TCP Reno sources through a
// switch whose residual capacity fluctuates under a higher-priority VBR
// video flow; what matters for that experiment is that the sources are
// ack-clocked, window-limited, and loss-responsive, which this
// implementation provides. Segments are identified by sequence number in
// units of MSS-sized packets.
package tcp

import (
	"math"

	"repro/internal/eventq"
	"repro/internal/sim"
)

// Default protocol constants.
const (
	DefaultAckBytes = 40.0
	DefaultMaxCwnd  = 128.0 // segments (receiver window stand-in)
	minRTO          = 0.2   // seconds
	maxRTO          = 60.0  // seconds
	initialRTO      = 1.0   // seconds
)

// Sender is the TCP Reno sending endpoint. Wire its Out to the forward
// path and deliver returning ACK frames to it (it implements
// sim.Consumer).
type Sender struct {
	Q     *eventq.Queue
	Out   sim.Consumer
	Flow  int
	MSS   float64 // segment size, bytes
	Start float64
	Limit int64 // total segments to send; 0 = unbounded

	// MaxCwnd caps the window (receiver window stand-in); 0 = default.
	MaxCwnd float64

	// MinRTO floors the retransmission timer; 0 = 0.2 s. Classic BSD
	// stacks used 1 s; raise it when queueing delay can grow large
	// relative to the floor (deep window-limited queues), or spurious
	// timeouts will masquerade as congestion.
	MinRTO float64

	cwnd     float64
	ssthresh float64
	nextSeq  int64 // next segment to send (1-based; rewound on timeout)
	maxSent  int64 // highest segment ever transmitted
	sndUna   int64 // oldest unacknowledged segment
	dupacks  int
	inFR     bool
	recover  int64

	srtt, rttvar, rto float64
	timedSeq          int64 // segment being timed (Karn); 0 = none
	timedAt           float64
	timerGen          int
	timerOn           bool

	sent       int64 // segments transmitted, including retransmissions
	retrans    int64
	timeouts   int64
	started    bool
	finishedAt float64 // time the last segment was acknowledged
}

// Run starts the connection at s.Start.
func (s *Sender) Run() {
	if s.Q == nil || s.Out == nil || s.MSS <= 0 {
		panic("tcp: invalid sender")
	}
	if s.MaxCwnd == 0 {
		s.MaxCwnd = DefaultMaxCwnd
	}
	if s.MinRTO == 0 {
		s.MinRTO = minRTO
	}
	s.cwnd = 1
	s.ssthresh = s.MaxCwnd
	s.nextSeq = 1
	s.sndUna = 1
	s.rto = math.Max(initialRTO, s.MinRTO)
	s.Q.At(s.Start, func() {
		s.started = true
		s.trySend()
	})
}

// Done reports whether every segment up to Limit has been acknowledged.
func (s *Sender) Done() bool { return s.Limit > 0 && s.sndUna > s.Limit }

// Sent returns total segment transmissions (including retransmissions).
func (s *Sender) Sent() int64 { return s.sent }

// Retransmissions returns the number of retransmitted segments.
func (s *Sender) Retransmissions() int64 { return s.retrans }

// Timeouts returns the number of RTO firings.
func (s *Sender) Timeouts() int64 { return s.timeouts }

// Deliver processes an incoming ACK frame (f.Seq carries the cumulative
// ACK number: the receiver's next expected segment).
func (s *Sender) Deliver(f *sim.Frame) {
	if f.Kind != sim.Ack || !s.started || s.Done() {
		return
	}
	ack := f.Seq
	switch {
	case ack > s.sndUna:
		s.onNewAck(ack)
	case ack == s.sndUna && s.outstanding() > 0:
		s.onDupAck()
	}
}

func (s *Sender) outstanding() int64 { return s.nextSeq - s.sndUna }

func (s *Sender) onNewAck(ack int64) {
	now := s.Q.Now()
	newlyAcked := ack - s.sndUna

	// RTT sample (Karn: only for segments never retransmitted).
	if s.timedSeq != 0 && ack > s.timedSeq {
		s.updateRTT(now - s.timedAt)
		s.timedSeq = 0
	}
	s.sndUna = ack
	if s.nextSeq < s.sndUna {
		// A late ACK (data received before a timeout rewind) can move
		// sndUna past the rewound send point.
		s.nextSeq = s.sndUna
	}

	if s.inFR {
		// Classic Reno: any new ACK terminates fast recovery.
		s.inFR = false
		s.cwnd = s.ssthresh
	} else if s.cwnd < s.ssthresh {
		// Slow start: one segment per ACKed segment, not beyond ssthresh.
		s.cwnd = math.Min(s.cwnd+float64(newlyAcked), math.Max(s.ssthresh, s.cwnd+1))
	} else {
		// Congestion avoidance: ~1 segment per RTT.
		s.cwnd += float64(newlyAcked) / s.cwnd
	}
	if s.cwnd > s.MaxCwnd {
		s.cwnd = s.MaxCwnd
	}
	s.dupacks = 0

	if s.Done() && s.finishedAt == 0 {
		s.finishedAt = now
	}
	if s.outstanding() > 0 {
		s.restartTimer()
	} else {
		s.stopTimer()
	}
	s.trySend()
}

func (s *Sender) onDupAck() {
	if s.inFR {
		// Window inflation: each dup ACK signals a departed segment.
		s.cwnd++
		s.trySend()
		return
	}
	s.dupacks++
	if s.dupacks == 3 {
		// Fast retransmit + fast recovery.
		s.ssthresh = math.Max(float64(s.outstanding())/2, 2)
		s.retransmit()
		s.cwnd = s.ssthresh + 3
		s.inFR = true
		s.recover = s.nextSeq - 1
	}
}

func (s *Sender) updateRTT(m float64) {
	if s.srtt == 0 {
		s.srtt = m
		s.rttvar = m / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-m)
		s.srtt = (1-alpha)*s.srtt + alpha*m
	}
	s.rto = clamp(s.srtt+4*s.rttvar, s.MinRTO, maxRTO)
}

func clamp(x, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, x)) }

func (s *Sender) trySend() {
	if s.Done() {
		s.stopTimer()
		return
	}
	now := s.Q.Now()
	for s.outstanding() < int64(s.cwnd) {
		if s.Limit > 0 && s.nextSeq > s.Limit {
			break
		}
		seq := s.nextSeq
		s.nextSeq++
		s.sent++
		if seq > s.maxSent {
			// Karn's algorithm: only never-before-sent segments are timed.
			if s.timedSeq == 0 {
				s.timedSeq = seq
				s.timedAt = now
			}
			s.maxSent = seq
		} else {
			s.retrans++
		}
		s.Out.Deliver(&sim.Frame{Flow: s.Flow, Seq: seq, Bytes: s.MSS, Kind: sim.Data, Created: now})
	}
	if s.outstanding() > 0 && !s.timerOn {
		s.restartTimer()
	}
}

// retransmit resends the oldest unacknowledged segment.
func (s *Sender) retransmit() {
	now := s.Q.Now()
	s.sent++
	s.retrans++
	s.timedSeq = 0 // Karn's algorithm: never time a retransmitted segment
	s.Out.Deliver(&sim.Frame{Flow: s.Flow, Seq: s.sndUna, Bytes: s.MSS, Kind: sim.Data, Created: now})
	s.restartTimer()
}

func (s *Sender) restartTimer() {
	s.timerGen++
	s.timerOn = true
	gen := s.timerGen
	s.Q.After(s.rto, func() {
		if s.timerOn && gen == s.timerGen {
			s.onTimeout()
		}
	})
}

func (s *Sender) stopTimer() {
	s.timerOn = false
	s.timerGen++
}

func (s *Sender) onTimeout() {
	if s.outstanding() == 0 || s.Done() {
		s.stopTimer()
		return
	}
	s.timeouts++
	s.ssthresh = math.Max(float64(s.outstanding())/2, 2)
	s.cwnd = 1
	s.dupacks = 0
	s.inFR = false
	s.rto = clamp(s.rto*2, s.MinRTO, maxRTO)
	// Go-back-N: everything in flight is presumed lost; slow start
	// resumes from the oldest unacknowledged segment.
	s.nextSeq = s.sndUna
	s.timedSeq = 0
	s.restartTimer()
	s.trySend()
}

// Receiver is the TCP receiving endpoint: it acknowledges every data
// segment cumulatively (no delayed ACKs) and reassembles in-order
// delivery. Wire its Out to the reverse (ACK) path.
type Receiver struct {
	Q        *eventq.Queue
	Out      sim.Consumer
	Flow     int
	AckBytes float64 // 0 = DefaultAckBytes

	// DelayedAck enables RFC 1122-style delayed ACKs: an ACK is sent for
	// every second in-order segment or after DelayedAckTimeout, whichever
	// comes first. Out-of-order segments are ACKed immediately (the
	// dup-ACK signal fast retransmit depends on).
	DelayedAck        bool
	DelayedAckTimeout float64 // 0 = 200 ms

	// OnData, if set, observes every arriving data segment (in arrival
	// order, before reordering).
	OnData func(seq int64, now float64)

	expected int64 // next in-order segment
	ooo      map[int64]bool
	received int64
	ackSeq   int64

	ackPending bool
	ackGen     int
}

// NewReceiver returns a receiver for the given flow.
func NewReceiver(q *eventq.Queue, out sim.Consumer, flow int) *Receiver {
	return &Receiver{Q: q, Out: out, Flow: flow, expected: 1, ooo: make(map[int64]bool)}
}

// Deliver processes a data segment and emits a cumulative ACK (possibly
// delayed; see DelayedAck).
func (r *Receiver) Deliver(f *sim.Frame) {
	if f.Kind != sim.Data {
		return
	}
	now := r.Q.Now()
	r.received++
	if r.OnData != nil {
		r.OnData(f.Seq, now)
	}
	inOrder := f.Seq == r.expected
	if inOrder {
		r.expected++
		for r.ooo[r.expected] {
			delete(r.ooo, r.expected)
			r.expected++
		}
	} else if f.Seq > r.expected {
		r.ooo[f.Seq] = true
	}

	if !r.DelayedAck || !inOrder {
		// Immediate ACK: either delayed ACKs are off, or the segment was
		// out of order / a duplicate (dup-ACK signal must not be
		// delayed).
		r.sendAck(now)
		return
	}
	if r.ackPending {
		// Second in-order segment: ACK now.
		r.sendAck(now)
		return
	}
	r.ackPending = true
	r.ackGen++
	gen := r.ackGen
	timeout := r.DelayedAckTimeout
	if timeout == 0 {
		timeout = 0.2
	}
	r.Q.After(timeout, func() {
		if r.ackPending && gen == r.ackGen {
			r.sendAck(r.Q.Now())
		}
	})
}

func (r *Receiver) sendAck(now float64) {
	r.ackPending = false
	r.ackGen++
	ab := r.AckBytes
	if ab == 0 {
		ab = DefaultAckBytes
	}
	r.ackSeq++
	r.Out.Deliver(&sim.Frame{Flow: r.Flow, Seq: r.expected, Bytes: ab, Kind: sim.Ack, Created: now})
}
