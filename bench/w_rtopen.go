package main

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"repro/internal/rt"
	"repro/internal/sched"
)

// rt-open: the paper's delay claim as a service would feel it. An
// rt.Admitter with openSeats seats sits over a one-shard wall-clock runtime;
// the driver models a service time of openService by finishing each request
// that long after it saw it dispatched, so capacity is seats/service = 20 k
// requests/s. Two heavy flows are kept topped up to openHeavyDepth waiting
// requests — always backlogged — and six light flows send on a Poisson
// schedule fixed in advance at half their fair share. A light request's
// wait is timed from the instant it was due to be sent, not from when the
// driver got round to sending it, to the instant the driver saw it
// dispatched.
const (
	openSeats      = 4
	openMaxQueued  = 4096
	openService    = 200 * time.Microsecond
	openHeavyDepth = 64
	openLight      = 6
	openLightLoad  = 0.5
	openCost       = 1.0
	openWindow     = 250 * time.Millisecond // one trial: short, so that a bad second costs few of them
	openWarmup     = 200 * time.Millisecond
)

var openHeavyWeights = []float64{3, 1}

type arrival struct {
	at   time.Duration // offset from the window's start
	flow int
}

// pending is a submitted request the driver has not yet seen dispatched.
type pending struct {
	t   *rt.Ticket
	due time.Time // intended send time (light) or actual (heavy)
}

type running struct {
	t      *rt.Ticket
	finish time.Time
}

// fifo is a queue that stops allocating once it has reached its working
// size: pop compacts the backing array instead of letting it creep.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int  { return len(q.items) - q.head }
func (q *fifo[T]) push(v T)  { q.items = append(q.items, v) }
func (q *fifo[T]) front() *T { return &q.items[q.head] }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	q.head++
	if q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}

type openInst struct {
	e      *env
	a      *rt.Admitter
	window time.Duration
	sched  []arrival // one window's light arrivals, reused by every window
	flows  int
	heavy  int

	waiting []fifo[pending] // per flow, in submission order (SFQ keeps it)
	exec    fifo[running]   // in dispatch order, which is finish order
	served  []int64         // dispatches per flow in the current window
	tk      *track
	depth   hist
	// waits and late are the current window's samples in ns; trial keeps
	// them only if the window is valid.
	waits, late []int64
}

func setupRtOpen(e *env, _ int) instance {
	oi := &openInst{e: e, heavy: len(openHeavyWeights), flows: len(openHeavyWeights) + openLight}
	oi.window = time.Duration(e.pickf(float64(openWindow), float64(50*time.Millisecond)))
	oi.waiting = make([]fifo[pending], oi.flows)
	oi.served = make([]int64, oi.flows)

	var decorate func(sched.Interface) sched.Interface
	if e.tr != nil {
		// One driver goroutine makes every call, so the discipline's spans
		// can share its track and nest under Submit/Finish by themselves.
		oi.tk = e.tr.track("")
		decorate = func(s sched.Interface) sched.Interface { return &tracedSched{Interface: s, t: oi.tk} }
	}
	r, err := newRuntime(decorate, sched.WithClock(rt.WallClock()))
	if err == nil {
		oi.a, err = rt.NewAdmitter(rt.AdmitterConfig{Runtime: r, Limit: openSeats, MaxQueued: openMaxQueued})
	}
	if err != nil {
		e.q.check(false, "rt-open: %v", err)
		oi.a = nil
		return oi
	}
	weightSum := 0.0
	for f := 0; f < oi.flows; f++ {
		w := 1.0
		if f < oi.heavy {
			w = openHeavyWeights[f]
		}
		weightSum += w
		if err := r.AddFlow(f, w); err != nil {
			e.q.check(false, "rt-open: AddFlow: %v", err)
		}
	}
	// Light flows (weight 1) offer openLightLoad of their fair share of the
	// capacity, as independent Poisson processes merged into one schedule.
	capacity := float64(openSeats) / openService.Seconds()
	rate := openLightLoad * capacity / weightSum
	rng := rand.New(rand.NewSource(e.seed))
	for f := oi.heavy; f < oi.flows; f++ {
		for t := rng.ExpFloat64() / rate; t < oi.window.Seconds(); t += rng.ExpFloat64() / rate {
			oi.sched = append(oi.sched, arrival{time.Duration(t * 1e9), f})
		}
	}
	sort.Slice(oi.sched, func(i, j int) bool { return oi.sched[i].at < oi.sched[j].at })
	for _, a := range oi.sched {
		e.hashFloats(float64(a.at), float64(a.flow))
	}
	oi.drive(time.Duration(e.pickf(float64(openWarmup), float64(10*time.Millisecond))), false)
	return oi
}

// noteDispatched moves every request the admitter has dispatched since the
// last look from its flow's waiting list to the executing list. SFQ serves
// a flow in order, so only the head of each list can have been dispatched.
func (oi *openInst) noteDispatched(record bool) {
	for again := true; again; {
		again = false
		for f := range oi.waiting {
			if oi.waiting[f].len() == 0 || !oi.waiting[f].front().t.Running() {
				continue
			}
			again = true
			now := time.Now()
			p := oi.waiting[f].pop()
			oi.exec.push(running{p.t, now.Add(openService)})
			oi.served[f]++
			if record && f >= oi.heavy {
				oi.waits = append(oi.waits, now.Sub(p.due).Nanoseconds())
			}
		}
	}
}

func (oi *openInst) submit(f int, due time.Time) (ok bool) {
	if oi.tk != nil {
		oi.tk.begin(spAdmitSubmit)
	}
	t, err := oi.a.Submit(f, openCost)
	if oi.tk != nil {
		oi.tk.end()
	}
	if err != nil {
		return false
	}
	oi.waiting[f].push(pending{t, due})
	return true
}

// drive runs the open loop for one window and returns the requests finished
// in it and the failures: a refused Submit, a failed Finish.
func (oi *openInst) drive(window time.Duration, record bool) (finished, failed int64) {
	for f := range oi.served {
		oi.served[f] = 0
	}
	start := time.Now()
	end := start.Add(window)
	next := 0
	for {
		now := time.Now()
		switch {
		case oi.exec.len() > 0 && !now.Before(oi.exec.front().finish):
			t := oi.exec.pop().t
			if oi.tk != nil {
				oi.tk.begin(spAdmitFinish)
			}
			err := t.Finish()
			if oi.tk != nil {
				oi.tk.end()
			}
			if err != nil {
				failed++
			}
			finished++
			oi.noteDispatched(record)
		case next < len(oi.sched) && oi.sched[next].at < window && now.Sub(start) >= oi.sched[next].at:
			a := oi.sched[next]
			next++
			due := start.Add(a.at)
			if record {
				oi.late = append(oi.late, now.Sub(due).Nanoseconds())
				if oi.tk != nil {
					queued := 0
					for f := range oi.waiting {
						queued += oi.waiting[f].len()
					}
					oi.depth.add(int64(queued))
				}
			}
			if !oi.submit(a.flow, due) {
				failed++
			}
			oi.noteDispatched(record)
		case !now.Before(end):
			// The window is over once every light request sent in it has
			// been dispatched; the heavy flows stay backlogged meanwhile.
			light := 0
			for f := oi.heavy; f < oi.flows; f++ {
				light += oi.waiting[f].len()
			}
			if light == 0 {
				oi.checkShares(record)
				return finished, failed
			}
			fallthrough
		default:
			for f := 0; f < oi.heavy; f++ {
				if oi.waiting[f].len() < openHeavyDepth {
					if !oi.submit(f, now) {
						failed++
					}
					oi.noteDispatched(record)
					break
				}
			}
		}
	}
}

// checkShares compares the heavy flows' dispatches in the window with their
// weights; both were backlogged throughout.
func (oi *openInst) checkShares(record bool) {
	if !record {
		return
	}
	var servedSum, weightSum float64
	for f := 0; f < oi.heavy; f++ {
		servedSum += float64(oi.served[f])
		weightSum += openHeavyWeights[f]
	}
	if servedSum == 0 {
		oi.e.q.check(false, "rt-open: no heavy request was dispatched")
		return
	}
	for f := 0; f < oi.heavy; f++ {
		oi.e.q.reportShare((float64(oi.served[f]) / servedSum) / (openHeavyWeights[f] / weightSum))
	}
}

func (oi *openInst) trial() (ops, failed int64) {
	if oi.a == nil {
		return 1, 1
	}
	// Start from free seats: whatever the previous window left executing is
	// finished first, so that the pause between trials is not charged to
	// this window's first requests.
	for oi.exec.len() > 0 {
		if err := oi.exec.pop().t.Finish(); err != nil {
			failed++
		}
	}
	oi.noteDispatched(false)
	oi.waits, oi.late = oi.waits[:0], oi.late[:0]
	finished, f := oi.drive(oi.window, true)
	// A window in which the generator itself ran late (the host took the
	// processor away from the driver) measured the host, not the admitter:
	// it is dropped whole and counted, and the run is refused if too many
	// go that way. (Only a full untraced run has windows to spare.)
	over := 0
	for _, l := range oi.late {
		if float64(l) > lateLimit*1e9 {
			over++
		}
	}
	if float64(over) > lateShareLimit*float64(len(oi.late)) && oi.e.dropLate {
		oi.e.q.layer["bench.discarded_windows"]++
		return 0, 0
	}
	for _, w := range oi.waits {
		oi.e.q.waits.add(w)
	}
	for _, l := range oi.late {
		oi.e.q.late.add(l)
	}
	return finished, failed + f
}

// close drains what is executing and, in a traced pass, times cancellation:
// requests submitted while every seat is taken, then abandoned with an
// expired context (enough of them to trigger the admitter's compaction).
func (oi *openInst) close() {
	if oi.a == nil {
		return
	}
	q := &oi.e.q
	if oi.tk != nil {
		q.layer["rt.admit_depth_p99"] = oi.depth.quantile(0.99)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 64; i++ {
			t, err := oi.a.Submit(oi.heavy, openCost)
			if err != nil {
				q.check(false, "rt-open: Submit before cancel: %v", err)
				break
			}
			oi.tk.begin(spAdmitCancel)
			err = t.Wait(ctx)
			oi.tk.end()
			q.check(err != nil, "rt-open: Wait on an expired context returned nil")
		}
	}
	if err := oi.a.Close(); err != nil {
		q.check(false, "rt-open: Close: %v", err)
	}
	// Closed admitters still dispatch what waits; finish until idle.
	for oi.exec.len() > 0 {
		if err := oi.exec.pop().t.Finish(); err != nil {
			q.check(false, "rt-open: Finish while draining: %v", err)
		}
		oi.noteDispatched(false)
	}
	q.check(oi.a.Executing() == 0, "rt-open: %d requests still executing after the drain", oi.a.Executing())
}

func rtOpenLayers(_ *env, _, _ *measured, sum *traceSummary, out map[string]float64) {
	out["rt.admit_submit_ns"] = sum.p50(spAdmitSubmit)
	out["rt.admit_finish_ns"] = sum.p50(spAdmitFinish)
	out["rt.admit_cancel_ns"] = sum.p50(spAdmitCancel)
}

var rtOpen = workloadDef{
	name: "rt-open",
	op:   "one request finished",
	why: "Open loop: 6 light tenants on a fixed Poisson schedule at half their share while 2 heavy tenants " +
		"flood a 4-seat admitter. Wait is timed from the intended send; catches dispatch-order regressions.",
	setup:        setupRtOpen,
	layers:       rtOpenLayers,
	minInstances: 5,
	openLoop:     true,
}
