// Package replay is the Universal Packet Scheduling harness (Mittal et
// al., PAPERS.md): it records the schedule a discipline produces for a
// workload, then asks whether another discipline — given only per-packet
// headers it is allowed to initialize from that recording — reproduces it.
//
// The UPS result this pins: LSTF with each packet's slack set to its
// recorded waiting time (service start − arrival) is a universal replayer
// on a single switch. The packet's slack deadline now + slack equals its
// recorded start time, busy periods of two work-conserving schedulers over
// the same arrivals coincide, and per-flow FIFO feasibility holds because
// recorded start times are increasing within a flow — so by induction the
// replay serves exactly the recorded sequence. Plain FIFO, by contrast,
// cannot replay a discipline that reorders across flows, which is the
// contrast the ups-replay experiment prints.
//
// The driver here is deliberately self-contained (not sim.Link): replay
// needs to set Packet.Slack per packet before Enqueue, and both the
// recording and the replay must run the identical loop for the
// completion-time comparison to be meaningful to the bit.
package replay

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Arrival scripts one packet; arrivals must be sorted by At.
type Arrival struct {
	At    float64
	Flow  int
	Bytes float64
	Rate  float64 // optional per-packet rate
}

// Service records one transmission of the driven link.
type Service struct {
	Flow    int
	Seq     int64 // per-flow arrival index, assigned by the driver
	Bytes   float64
	Arrival float64
	Start   float64 // service start = the scheduling decision the UPS question is about
	End     float64
}

// SlackFunc supplies the Packet.Slack input for the packet with the given
// per-flow arrival index; nil means no slack initialization.
type SlackFunc func(flow int, seq int64) float64

// Drive plays arrivals into s over a work-conserving constant-rate link of
// c bytes/s (one packet in transmission at a time, ties resolved
// completion-first) and returns the transmissions in service order.
func Drive(s sched.Interface, arrivals []Arrival, c float64, slack SlackFunc) ([]Service, error) {
	if c <= 0 {
		return nil, fmt.Errorf("replay: capacity %v must be positive", c)
	}
	var (
		out     []Service
		seqs    = make(map[int]int64)
		cur     Service
		serving bool
		txEnd   float64
		now     float64
		i       int
	)
	begin := func(p *sched.Packet, at float64) {
		cur = Service{Flow: p.Flow, Seq: p.Seq, Bytes: p.Length, Arrival: p.Arrival, Start: at}
		txEnd = at + p.Length/c
		serving = true
	}
	for {
		if serving && (i >= len(arrivals) || txEnd <= arrivals[i].At) {
			now = txEnd
			cur.End = now
			out = append(out, cur)
			serving = false
			if p, ok := s.Dequeue(now); ok {
				begin(p, now)
			}
			continue
		}
		if i >= len(arrivals) {
			break
		}
		now = arrivals[i].At
		for i < len(arrivals) && arrivals[i].At <= now {
			a := arrivals[i]
			i++
			seqs[a.Flow]++
			p := &sched.Packet{Flow: a.Flow, Seq: seqs[a.Flow], Length: a.Bytes, Arrival: now, Rate: a.Rate}
			if slack != nil {
				p.Slack = slack(p.Flow, p.Seq)
			}
			if err := s.Enqueue(now, p); err != nil {
				return nil, fmt.Errorf("replay: enqueue flow %d at %v: %w", a.Flow, now, err)
			}
		}
		if !serving {
			if p, ok := s.Dequeue(now); ok {
				begin(p, now)
			}
		}
	}
	if n := s.Len(); n != 0 {
		return nil, fmt.Errorf("replay: %d packets stranded after drive (scheduler not work conserving?)", n)
	}
	return out, nil
}

// Slacks extracts the LSTF replay initialization from a recording: each
// packet's slack is the time it waited, start − arrival, so that
// now + slack at its (re-)arrival reproduces the recorded start time.
func Slacks(recorded []Service) SlackFunc {
	type key struct {
		flow int
		seq  int64
	}
	m := make(map[key]float64, len(recorded))
	for _, sv := range recorded {
		m[key{sv.Flow, sv.Seq}] = sv.Start - sv.Arrival
	}
	return func(flow int, seq int64) float64 { return m[key{flow, seq}] }
}

// Comparison summarizes how faithfully a replay reproduced a recording.
type Comparison struct {
	Total        int     // transmissions in the recording
	OrderMatches int     // positions serving the same (flow, seq)
	MaxStartDiff float64 // max |replay start − recorded start| by packet identity
	MaxEndDiff   float64 // max |replay end − recorded end| by packet identity
}

// MatchFraction is the fraction of positions served in recorded order.
func (c Comparison) MatchFraction() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.OrderMatches) / float64(c.Total)
}

// Compare matches a replay against a recording positionally (order) and by
// packet identity (times).
func Compare(recorded, replayed []Service) Comparison {
	cmp := Comparison{Total: len(recorded)}
	for i := 0; i < len(recorded) && i < len(replayed); i++ {
		if recorded[i].Flow == replayed[i].Flow && recorded[i].Seq == replayed[i].Seq {
			cmp.OrderMatches++
		}
	}
	type key struct {
		flow int
		seq  int64
	}
	rec := make(map[key]Service, len(recorded))
	for _, sv := range recorded {
		rec[key{sv.Flow, sv.Seq}] = sv
	}
	for _, sv := range replayed {
		r, ok := rec[key{sv.Flow, sv.Seq}]
		if !ok {
			continue
		}
		if d := math.Abs(sv.Start - r.Start); d > cmp.MaxStartDiff {
			cmp.MaxStartDiff = d
		}
		if d := math.Abs(sv.End - r.End); d > cmp.MaxEndDiff {
			cmp.MaxEndDiff = d
		}
	}
	return cmp
}
