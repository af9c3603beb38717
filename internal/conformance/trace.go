package conformance

import (
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
	"repro/internal/sim"
)

// Stamp records one scheduler operation: the packet and the scheduler
// clock at which the operation happened. Op is a per-run global operation
// counter (shared between enqueues and dequeues), so checkers that need
// the exact interleaving of the two streams — the SRPT and aggregate-FIFO
// service checks — can merge them without guessing how same-instant
// operations were ordered.
type Stamp struct {
	Now float64
	Op  int64
	P   *sched.Packet
}

// Trace is the operation log of one run: every successful Enqueue in
// call order, every successful Dequeue in service order, and every
// *failed* Dequeue (Idle, with a nil packet) — the end-of-busy-period
// calls that, for the self-clocked disciplines, reset the system virtual
// time (SFQ step 2 sets v to the maximum finish tag there). The replay
// checkers in invariants.go consume it alongside the sim.Monitor service
// records (Trace.Deq[i] is the packet of Monitor.ServiceRecords()[i]: a
// link transmits packets sequentially in dequeue order); the runtime replay
// (runtime_test.go) additionally needs Idle to reproduce the simulator's
// exact call sequence, busy-period boundaries included.
type Trace struct {
	Enq  []Stamp
	Deq  []Stamp
	Idle []Stamp
}

// recorder decorates a scheduler, logging successful operations.
type recorder struct {
	inner sched.Interface
	tr    *Trace
	op    int64
}

// Record wraps sch so that every successful Enqueue/Dequeue is appended
// to the returned Trace.
func Record(sch sched.Interface) (sched.Interface, *Trace) {
	tr := &Trace{}
	return &recorder{inner: sch, tr: tr}, tr
}

func (r *recorder) AddFlow(flow int, weight float64) error { return r.inner.AddFlow(flow, weight) }
func (r *recorder) RemoveFlow(flow int) error              { return r.inner.RemoveFlow(flow) }
func (r *recorder) Len() int                               { return r.inner.Len() }
func (r *recorder) QueuedBytes(flow int) float64           { return r.inner.QueuedBytes(flow) }

func (r *recorder) Enqueue(now float64, p *sched.Packet) error {
	if err := r.inner.Enqueue(now, p); err != nil {
		return err
	}
	r.op++
	r.tr.Enq = append(r.tr.Enq, Stamp{Now: now, Op: r.op, P: p})
	return nil
}

func (r *recorder) Dequeue(now float64) (*sched.Packet, bool) {
	p, ok := r.inner.Dequeue(now)
	r.op++
	if ok {
		r.tr.Deq = append(r.tr.Deq, Stamp{Now: now, Op: r.op, P: p})
	} else {
		r.tr.Idle = append(r.tr.Idle, Stamp{Now: now, Op: r.op})
	}
	return p, ok
}

// Run registers the workload's flows on sch, drives it over the workload
// arrivals on a link served by proc, and returns the trace plus the
// simulator artifacts. A nil proc means a constant-rate server at w.C.
func Run(sch sched.Interface, w Workload, proc server.Process) (*Trace, *schedtest.Result, error) {
	return RunWith(sch, w, proc, nil)
}

// RunWith is Run with a pre-run link hook (see schedtest.DriveWith): the
// probe-transparency suite attaches an observer through it and requires
// the instrumented replay to match the bare one bit for bit.
func RunWith(sch sched.Interface, w Workload, proc server.Process, setup func(*sim.Link)) (*Trace, *schedtest.Result, error) {
	for _, f := range w.Flows {
		if err := sch.AddFlow(f.Flow, f.Weight); err != nil {
			return nil, nil, err
		}
	}
	if proc == nil {
		proc = server.NewConstantRate(w.C)
	}
	rec, tr := Record(sch)
	res := schedtest.DriveWith(rec, proc, w.Arrivals, setup)
	return tr, res, nil
}
