package sim

import "repro/internal/sched"

// AdoptBacklog synchronizes a link with a scheduler that was restored
// mid-backlog (a liveops snapshot from another process): every queued
// packet gets a synthesized in-flight Frame as payload and is pushed
// through the link's normal arrival accounting — per-flow sequence
// counters, byte/frame counters, backlog, enqueue hooks — as if it had just been
// delivered, and transmission starts if the link is idle. Call it once,
// after wiring the link (and any monitors/observers) and before the first
// real arrival; it returns the number of packets adopted.
//
// A scheduler that does not support snapshots has no enumerable backlog;
// AdoptBacklog then adopts nothing and returns 0.
func (l *Link) AdoptBacklog() int {
	snap, ok := l.sched.(sched.Snapshotter)
	if !ok {
		return 0
	}
	now := l.q.Now()
	n := 0
	snap.VisitQueued(func(p *sched.Packet) {
		f := &Frame{Flow: p.Flow, Bytes: p.Length, Rate: p.Rate, Created: now}
		p.Payload = f
		lf := l.flow(f.Flow)
		if p.Seq > lf.seq {
			lf.seq = p.Seq
		}
		l.account(f, lf, now)
		if l.probe != nil {
			l.probe.OnEnqueue(now, p)
		}
		if l.OnEnqueue != nil {
			l.OnEnqueue(f, now)
		}
		n++
	})
	if n > 0 && !l.busy && !l.down {
		l.startNext()
	}
	return n
}
