package rt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/sched"
)

// Admitter is the concurrency-limited fair admission facade: request
// scheduling in the shape of k8s API Priority & Fairness, with the
// paper's disciplines deciding the order. Each Admit(ctx, flow, cost)
// queues a virtual packet of Length = cost on the runtime's fair queue;
// at most Limit admitted requests execute concurrently, and every
// Ticket.Finish frees a seat for the next packet in fair order. The
// control plane composes with internal/admission: AdmitFlow runs a
// request through the reservation controller's Σ r <= C and Theorem-4
// delay checks before the flow may compete for seats, so the data path
// only ever serves flows whose guarantees the math admits.
type Admitter struct {
	rt   *Runtime
	ctrl *admission.Controller

	mu        sync.Mutex
	limit     int
	executing int
	queued    int
	maxQueued int
	seq       int64
	closed    bool

	// Dead-ticket compaction: canceled counts tickets in state tCanceled
	// still holding queue slots; once it reaches compactAt, the canceling
	// Wait pops the fair queue's head until it meets a live ticket, which
	// is staged (served ahead of the queue on the next dispatch, keeping
	// fair order) while the dead prefix is dropped.
	canceled  int
	staged    *Ticket
	compactAt int
}

// defaultCompactThreshold is the canceled-ticket count that triggers
// compaction when AdmitterConfig.CompactThreshold is 0: high enough that
// sporadic cancels stay O(1), low enough that a cancel storm cannot hold
// more than a handful of MaxQueued slots hostage.
const defaultCompactThreshold = 16

// AdmitterConfig configures NewAdmitter.
type AdmitterConfig struct {
	// Runtime is the fair queue requests wait in. Required. Costs are in
	// the same unit as flow weights (a flow of weight w draining cost-c
	// requests is served c/w virtual seconds apart).
	Runtime *Runtime

	// Limit is the maximum number of concurrently executing admitted
	// requests (the APF seat count). Required (> 0).
	Limit int

	// MaxQueued bounds the requests waiting for a seat; a Submit beyond
	// the bound sheds with ErrShedding. 0 means unbounded. A canceled
	// request keeps its slot until dispatch pops it or the canceled count
	// reaches CompactThreshold and compaction drops the queue's dead
	// prefix — size MaxQueued with roughly CompactThreshold slots of
	// headroom for in-flight cancels.
	MaxQueued int

	// CompactThreshold is the number of canceled-but-still-queued tickets
	// that triggers opportunistic compaction on the next cancel (dead
	// tickets at the head of the fair queue are dropped without waiting
	// for a seat to free). 0 means the default (16); negative values are
	// an ErrBadConfig. Compaction preserves fair order: the first live
	// ticket found is staged and dispatched before anything else.
	CompactThreshold int

	// Controller, when non-nil, is the reservation controller AdmitFlow /
	// ReleaseFlow run requests through.
	Controller *admission.Controller
}

// Ticket is one admitted-or-waiting request. States move strictly
// queued → dispatched → finished, with queued → canceled on a context
// expiry that wins the race against dispatch.
type Ticket struct {
	a     *Admitter
	flow  int
	cost  float64
	state atomic.Int32
	seq   atomic.Int64 // dispatch order, assigned at dispatch
	ready chan struct{}
}

const (
	tQueued int32 = iota
	tDispatched
	tCanceled
	tFinished
)

// NewAdmitter validates cfg and returns the facade.
func NewAdmitter(cfg AdmitterConfig) (*Admitter, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("%w: admitter requires a Runtime", sched.ErrBadConfig)
	}
	if cfg.Limit <= 0 {
		return nil, fmt.Errorf("%w: admitter limit %d must be positive", sched.ErrBadConfig, cfg.Limit)
	}
	if cfg.MaxQueued < 0 {
		return nil, fmt.Errorf("%w: admitter max queued %d must be >= 0", sched.ErrBadConfig, cfg.MaxQueued)
	}
	if cfg.CompactThreshold < 0 {
		return nil, fmt.Errorf("%w: admitter compact threshold %d must be >= 0", sched.ErrBadConfig, cfg.CompactThreshold)
	}
	compactAt := cfg.CompactThreshold
	if compactAt == 0 {
		compactAt = defaultCompactThreshold
	}
	return &Admitter{
		rt: cfg.Runtime, ctrl: cfg.Controller,
		limit: cfg.Limit, maxQueued: cfg.MaxQueued, compactAt: compactAt,
	}, nil
}

// AdmitFlow admits a flow end to end: through the reservation controller
// (if configured) and onto the runtime's fair queue with weight = reserved
// rate. The controller's refusals (ErrOverCommitted, ErrDelayUnmet) pass
// through unchanged.
func (a *Admitter) AdmitFlow(req admission.Request) error {
	if a.ctrl != nil {
		if err := a.ctrl.Admit(req); err != nil {
			return err
		}
	}
	if err := a.rt.AddFlow(req.Flow, req.Rate); err != nil {
		if a.ctrl != nil {
			_ = a.ctrl.Release(req.Flow)
		}
		return err
	}
	return nil
}

// DelayBound exposes the controller's Theorem-4 delay term for an
// admitted flow (ErrBadConfig when no controller is configured).
func (a *Admitter) DelayBound(flow int) (float64, error) {
	if a.ctrl == nil {
		return 0, fmt.Errorf("%w: admitter has no reservation controller", sched.ErrBadConfig)
	}
	return a.ctrl.DelayBound(flow)
}

// Submit queues a request of the given cost for flow without blocking and
// returns its ticket; callers then Wait for a seat. Errors: ErrClosed,
// ErrShedding (queue bound), ErrUnknownFlow (flow never admitted),
// ErrBadPacket (cost <= 0).
func (a *Admitter) Submit(flow int, cost float64) (*Ticket, error) {
	t := &Ticket{a: a, flow: flow, cost: cost, ready: make(chan struct{})}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: admitter", sched.ErrClosed)
	}
	if a.maxQueued > 0 && a.queued >= a.maxQueued {
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: %d requests waiting", sched.ErrShedding, a.maxQueued)
	}
	p := &sched.Packet{Flow: flow, Length: cost, Payload: t}
	if err := a.rt.Enqueue(p); err != nil {
		a.mu.Unlock()
		return nil, err
	}
	a.queued++
	a.dispatchLocked()
	a.mu.Unlock()
	return t, nil
}

// SetLimit changes the seat count; raising it dispatches immediately.
// Limit 0 pauses dispatch entirely (useful for deterministic tests and
// staged startup); negative limits are an ErrBadConfig.
func (a *Admitter) SetLimit(n int) error {
	if n < 0 {
		return fmt.Errorf("%w: admitter limit %d must be >= 0", sched.ErrBadConfig, n)
	}
	a.mu.Lock()
	a.limit = n
	a.dispatchLocked()
	a.mu.Unlock()
	return nil
}

// Queued returns the number of requests waiting for a seat.
func (a *Admitter) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

// Executing returns the number of requests holding seats.
func (a *Admitter) Executing() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.executing
}

// Close stops intake (Submit/Admit fail with ErrClosed). Requests already
// waiting still dispatch in fair order as seats free; callers drain by
// finishing what they hold.
func (a *Admitter) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fmt.Errorf("%w: already closed", sched.ErrClosed)
	}
	a.closed = true
	return nil
}

// dispatchLocked fills free seats from the fair queue. Canceled tickets
// pop and vanish without consuming a seat (their cost was charged to the
// flow's virtual time when queued — the price of O(1) cancellation in a
// tag-ordered queue; see DESIGN.md §16). A ticket staged by compaction is
// served before the queue — it was popped first in fair order. Packets
// enqueued on the runtime directly (not via Submit) carry no Ticket;
// dispatch drains and discards them — see Runtime.
func (a *Admitter) dispatchLocked() {
	for a.executing < a.limit && a.queued > 0 {
		var t *Ticket
		if a.staged != nil {
			t, a.staged = a.staged, nil
		} else {
			p, ok := a.rt.Dequeue()
			if !ok {
				return
			}
			var isTicket bool
			if t, isTicket = p.Payload.(*Ticket); !isTicket {
				continue // foreign packet: no seat, no queued slot to release
			}
		}
		a.queued--
		if !t.state.CompareAndSwap(tQueued, tDispatched) {
			a.canceled-- // canceled while waiting (possibly while staged)
			continue
		}
		a.seq++
		t.seq.Store(a.seq)
		a.executing++
		close(t.ready)
	}
}

// compactLocked drops dead tickets from the head of the fair queue once
// enough have accumulated: when the canceled backlog reaches the
// threshold, the queue's dead prefix is popped and discarded up to the
// first live ticket, which is staged for the next dispatch — so
// compaction can never reorder service. Dead tickets behind the staged
// one stay queued (accounted in a.canceled) until dispatch pops past
// them or a later compaction, after the staged ticket drains, resumes.
func (a *Admitter) compactLocked() {
	if a.staged != nil || a.canceled < a.compactAt {
		return
	}
	for a.staged == nil && a.canceled > 0 {
		p, ok := a.rt.Dequeue()
		if !ok {
			return
		}
		t, isTicket := p.Payload.(*Ticket)
		if !isTicket {
			continue
		}
		if t.state.Load() == tCanceled {
			a.queued--
			a.canceled--
			continue
		}
		a.staged = t
	}
}

// Wait blocks until the ticket is dispatched or ctx expires. On expiry
// the ticket is canceled if still queued; if dispatch won the race the
// seat is released again, so no capacity leaks. Cancellation is O(1) in
// the common case and leaves the dead ticket in the fair queue: its cost
// stays charged to the flow's virtual time, and it keeps its MaxQueued
// slot and its flow's QueuedBytes (so ReleaseFlow reports ErrFlowBusy)
// until dispatch pops past it — or until enough cancels accumulate that
// this one triggers compaction (see AdmitterConfig.CompactThreshold) and
// the dead head of the queue is dropped immediately.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
	}
	if t.state.CompareAndSwap(tQueued, tCanceled) {
		a := t.a
		a.mu.Lock()
		a.canceled++
		a.compactLocked()
		a.mu.Unlock()
		return ctx.Err()
	}
	// Dispatch won the race: the caller is abandoning an admitted
	// request, so release the seat.
	<-t.ready
	_ = t.Finish()
	return ctx.Err()
}

// Flow returns the ticket's flow.
func (t *Ticket) Flow() int { return t.flow }

// Running reports whether the ticket currently holds a seat.
func (t *Ticket) Running() bool { return t.state.Load() == tDispatched }

// Finish releases the ticket's seat and dispatches the next request.
// Finishing a ticket that is not running fails with ErrBadState (double
// finish, never-admitted, canceled).
func (t *Ticket) Finish() error {
	if !t.state.CompareAndSwap(tDispatched, tFinished) {
		return fmt.Errorf("%w: ticket for flow %d is not running", sched.ErrBadState, t.flow)
	}
	a := t.a
	a.mu.Lock()
	a.executing--
	a.dispatchLocked()
	a.mu.Unlock()
	return nil
}
