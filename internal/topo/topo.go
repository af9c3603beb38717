// Package topo builds multi-node simulation topologies declaratively:
// named nodes joined by links (each with its own scheduler and capacity
// process) and static per-flow routes that end in a sink.
//
// One engine runs every topology. Build puts all links on the caller's
// event queue as one domain; BuildSharded gives each link its own queue. A
// hop to a link on the same queue is scheduled at endTx + PropDelay, or
// delivered synchronously when the delay is 0. A frame leaving queue u at
// time d for another queue v is handed over at that instant: v schedules it
// at d + PropDelay after running its events before d, and frames that
// several queues hand to v at one instant enter in queue order (links by
// name), then in emission order. Queues run in the dependency order of the
// cross-queue hops, so a route that would close a cycle between queues is
// refused (ErrCycle).
//
// AddFlow and RemoveFlow may be called from any event of a one-domain
// engine, and between Runs of any engine. A frame that reaches a switch
// or sink after its flow was torn down is dropped under DropNoRoute.
package topo

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// DropNoRoute tags frames that arrived at a switch with no next hop for
// their flow (the flow was removed while frames were still in flight, or
// was never routed).
const DropNoRoute sim.DropCause = "no-route"

// turnEvents is how many events a queue that no other feeds runs per turn
// of a Run: the grain at which the queues it feeds follow it.
const turnEvents = 512

// LinkSpec declares one unidirectional link.
type LinkSpec struct {
	Name      string
	From, To  string
	Sched     sched.Interface
	Proc      server.Process
	PropDelay float64
	Buffer    float64 // shared buffer bytes; 0 = unbounded
}

// FlowSpec declares one flow: its id, weight (registered on every link of
// the route), the ordered list of link names it traverses, and the sink
// consumer that receives it at the end (nil = count-only sink).
type FlowSpec struct {
	Flow   int
	Weight float64
	Route  []string
	Sink   sim.Consumer
}

// Errors returned by Build, BuildSharded, AddFlow, and RemoveFlow.
var (
	ErrDuplicateLink = errors.New("topo: duplicate link name")
	ErrUnknownLink   = errors.New("topo: route references unknown link")
	ErrBadRoute      = errors.New("topo: route links are not contiguous")
	ErrDuplicateFlow = errors.New("topo: duplicate flow id")
	ErrUnknownFlow   = errors.New("topo: unknown flow")
	ErrFlowBusy      = errors.New("topo: flow has queued frames")
	ErrCycle         = errors.New("topo: route closes a cycle between queues")

	// ErrCustomSink rejects FlowSpec.Sink on an engine with more than one
	// queue: the consumer would run on whichever worker owns the egress
	// domain, racing with the caller. Use the auto-sinks (Sharded.Sink).
	ErrCustomSink = errors.New("topo: sharded topologies use auto-sinks; FlowSpec.Sink must be nil")
)

// domain is one event queue and its place in a Run.
type domain struct {
	q   *eventq.Queue
	idx int       // queue order
	up  []*domain // the queues that feed it, set by wire
	// out holds what d's links hand over during a turn, sent what other
	// queues handed to d, and in what d took in and has not yet scheduled.
	out, sent, in []handover
	// done is d's progress, written under Sharded.mu: every event before it
	// has run, so every frame leaving before it has been handed over.
	done float64
}

// handover is frame f, which left queue from at time d by hop and arrives
// at time at.
type handover struct {
	f     *sim.Frame
	d, at float64
	hop
	from int
}

// port is one link compiled onto a domain.
type port struct {
	spec    LinkSpec
	dom     *domain
	link    *sim.Link
	mon     *sim.Monitor
	hops    map[int]hop   // flow → how its frames go on from here
	noRoute map[int]int64 // per flow, counted on the port's queue
}

// hop is how a link forwards one flow's frames, looked up once at departure.
type hop struct {
	arrive func(arg any) // the post-propagation arrival at the next link or sink
	cross  *domain       // the next link's domain when it is another queue
}

// flow is one registered flow.
type flow struct {
	route   []*port
	sink    *sim.Sink // nil when the flow supplied its own
	removed bool      // set by RemoveFlow: frames still propagating drop
}

// Sharded is a compiled topology on one or more event queues.
type Sharded struct {
	domains []*domain // queue order
	ports   []*port   // sorted by link name
	byName  map[string]*port
	flows   map[int]*flow
	feeds   map[[2]*domain]int // routes crossing from one queue to another
	windows int64

	mu     sync.Mutex // hands frames and progress between workers
	moved  sync.Cond  // signalled when a queue takes a turn
	change int64      // counts the turns taken
}

// Build compiles the topology onto q, every link in one domain. Routes
// must be contiguous (each link's To equals the next link's From). Drive
// it with q.Run, or with Run.
func Build(q *eventq.Queue, links []LinkSpec, flows []FlowSpec) (*Sharded, error) {
	return build(links, flows, func() *eventq.Queue { return q })
}

// BuildSharded compiles the topology for parallel execution, every link on
// its own queue. On top of Build's validation, routes must not close a
// cycle between queues, and flows must use auto-sinks.
func BuildSharded(links []LinkSpec, flows []FlowSpec) (*Sharded, error) {
	return build(links, flows, func() *eventq.Queue { return &eventq.Queue{} })
}

// build puts each link, in name order, on the queue that queue returns.
func build(links []LinkSpec, flows []FlowSpec, queue func() *eventq.Queue) (*Sharded, error) {
	s := &Sharded{byName: make(map[string]*port), flows: make(map[int]*flow), feeds: make(map[[2]*domain]int)}
	s.moved.L = &s.mu
	links = append([]LinkSpec(nil), links...)
	slices.SortStableFunc(links, func(a, b LinkSpec) int { return strings.Compare(a.Name, b.Name) })
	var d *domain
	for _, ls := range links {
		if _, dup := s.byName[ls.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateLink, ls.Name)
		}
		if q := queue(); d == nil || d.q != q {
			d = &domain{q: q, idx: len(s.domains)}
			s.domains = append(s.domains, d)
		}
		p := &port{spec: ls, dom: d, hops: make(map[int]hop), noRoute: make(map[int]int64)}
		// The link transmits with PropDelay 0: depart applies propagation,
		// pushing the arrival where Link.PropDelay would push it.
		p.link = sim.NewLink(d.q, ls.Name, ls.Sched, ls.Proc, sim.ConsumerFunc(p.depart))
		p.link.BufferBytes = ls.Buffer
		p.mon = sim.MonitorAll(p.link)
		s.byName[ls.Name] = p
		s.ports = append(s.ports, p)
	}
	for _, fs := range flows {
		if err := s.AddFlow(fs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// depart is the link's downstream consumer, called when a transmission
// ends: it resolves the frame's next hop once.
func (p *port) depart(f *sim.Frame) {
	h, ok := p.hops[f.Flow]
	switch now := p.dom.q.Now(); {
	case !ok:
		// Never routed, or torn down while in service: count, not crash.
		p.noRoute[f.Flow]++
	case h.cross != nil:
		p.dom.out = append(p.dom.out, handover{f, now, now + p.spec.PropDelay, h, p.dom.idx})
	case p.spec.PropDelay > 0:
		p.dom.q.AtCall(now+p.spec.PropDelay, h.arrive, f)
	default:
		h.arrive(f)
	}
}

// arrival is the event callback that hands a frame of fl to next, running
// on p's queue; a frame whose flow was removed in flight drops at p.
func arrival(fl *flow, p *port, next sim.Consumer) func(arg any) {
	return func(arg any) {
		if f := arg.(*sim.Frame); !fl.removed {
			next.Deliver(f)
		} else {
			p.noRoute[f.Flow]++
		}
	}
}

// AddFlow validates the whole route, registers the weight on every hop and
// wires the hops to the flow's sink; on error it changes nothing. Call it
// from any event of a one-domain engine, or between Runs.
func (s *Sharded) AddFlow(fs FlowSpec) error {
	switch _, dup := s.flows[fs.Flow]; {
	case dup:
		return fmt.Errorf("%w: %d", ErrDuplicateFlow, fs.Flow)
	case len(fs.Route) == 0:
		return fmt.Errorf("topo: flow %d has an empty route", fs.Flow)
	case fs.Sink != nil && len(s.domains) > 1:
		return fmt.Errorf("%w: flow %d", ErrCustomSink, fs.Flow)
	}
	route := make([]*port, len(fs.Route))
	for i, name := range fs.Route {
		p, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("%w: flow %d hop %q", ErrUnknownLink, fs.Flow, name)
		}
		if i > 0 {
			prev := route[i-1].spec
			if prev.To != p.spec.From {
				return fmt.Errorf("%w: flow %d: %q ends at %q but %q starts at %q",
					ErrBadRoute, fs.Flow, prev.Name, prev.To, p.spec.Name, p.spec.From)
			}
		}
		route[i] = p
	}
	if s.feed(route, 1) && s.wire() == nil {
		s.feed(route, -1)
		return fmt.Errorf("%w: flow %d", ErrCycle, fs.Flow)
	}
	for i, p := range route {
		if err := p.link.Scheduler().AddFlow(fs.Flow, fs.Weight); err != nil {
			for _, r := range route[:i] {
				_ = r.link.Scheduler().RemoveFlow(fs.Flow) // undoes the AddFlow above; nothing is queued yet
			}
			s.feed(route, -1)
			return fmt.Errorf("topo: flow %d on %q: %w", fs.Flow, p.spec.Name, err)
		}
	}
	fl := &flow{route: route}
	next := fs.Sink
	if next == nil {
		fl.sink = sim.NewSink(route[len(route)-1].dom.q)
		next = fl.sink
	}
	for i, p := range route {
		at, to := p, next // the last hop arrives at the sink
		if i+1 < len(route) {
			at, to = route[i+1], route[i+1].link
		}
		h := hop{arrive: arrival(fl, at, to)}
		if at.dom != p.dom {
			h.cross = at.dom
		}
		p.hops[fs.Flow] = h
	}
	s.flows[fs.Flow] = fl
	return nil
}

// RemoveFlow tears a flow down: it unregisters the flow from every hop's
// scheduler, releases the links' per-flow bookkeeping, and unwires the
// hops. It refuses (ErrFlowBusy) while the flow has frames queued at any
// hop. Frames then in transmission or propagation count as DropNoRoute.
// Call it from any event of a one-domain engine, or between Runs.
func (s *Sharded) RemoveFlow(id int) error {
	fl, ok := s.flows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	for _, p := range fl.route {
		if p.link.Scheduler().QueuedBytes(id) > 0 {
			return fmt.Errorf("%w: flow %d at %q", ErrFlowBusy, id, p.spec.Name)
		}
	}
	for _, p := range fl.route {
		if err := p.link.Scheduler().RemoveFlow(id); err != nil {
			return fmt.Errorf("topo: flow %d on %q: %w", id, p.spec.Name, err)
		}
		p.link.ForgetFlow(id)
		delete(p.hops, id)
	}
	s.feed(fl.route, -1)
	fl.removed = true
	delete(s.flows, id)
	return nil
}

// feed adds n to the count of routes on each of route's hops between
// queues and reports whether that links two queues for the first time.
func (s *Sharded) feed(route []*port, n int) (linked bool) {
	for i, p := range route[1:] {
		if k := [2]*domain{route[i].dom, p.dom}; k[0] != k[1] {
			switch s.feeds[k] += n; s.feeds[k] {
			case 0:
				delete(s.feeds, k)
			case n:
				linked = true
			}
		}
	}
	return linked
}

func (s *Sharded) flow(id int) *flow {
	if fl := s.flows[id]; fl != nil {
		return fl
	}
	panic(fmt.Sprintf("topo: unknown flow %d", id))
}

// Entry returns the first link of a flow's route, which its source feeds.
func (s *Sharded) Entry(flow int) sim.Consumer { return s.flow(flow).route[0].link }

// EntryQueue returns the queue a flow's source must schedule on.
func (s *Sharded) EntryQueue(flow int) *eventq.Queue { return s.flow(flow).route[0].dom.q }

// port returns the named link's port, or an empty one that answers nil.
func (s *Sharded) port(name string) *port {
	if p := s.byName[name]; p != nil {
		return p
	}
	return &port{dom: &domain{}}
}

// Queue returns the named link's event queue (nil if unknown).
func (s *Sharded) Queue(name string) *eventq.Queue { return s.port(name).dom.q }

// Link returns the named link (nil if unknown).
func (s *Sharded) Link(name string) *sim.Link { return s.port(name).link }

// Monitor returns the named link's monitor (nil if unknown).
func (s *Sharded) Monitor(name string) *sim.Monitor { return s.port(name).mon }

// Sink returns a flow's auto-created sink (nil for a custom or no sink).
func (s *Sharded) Sink(flow int) *sim.Sink {
	if fl := s.flows[flow]; fl != nil {
		return fl.sink
	}
	return nil
}

// Windows returns the number of passes over the queues the last Run made
// (on several workers, the most that one worker made). For Run(1) it is
// ⌈E / 512⌉, at least 1, where E is the most events that a queue no other
// queue feeds ran.
func (s *Sharded) Windows() int64 { return s.windows }

// NoRouteDrops returns the frames of flow dropped for lack of a next hop.
func (s *Sharded) NoRouteDrops(flow int) int64 {
	var total int64
	for _, p := range s.ports {
		total += p.noRoute[flow]
	}
	return total
}

// Drops aggregates every drop in the network by cause, no-route included.
func (s *Sharded) Drops() map[sim.DropCause]int64 {
	out := make(map[sim.DropCause]int64)
	for _, p := range s.ports {
		for c, v := range p.link.DropsByCause() {
			out[c] += v
		}
		for _, v := range p.noRoute {
			out[DropNoRoute] += v
		}
	}
	return out
}

// DropsByFlow returns every drop charged to flow, no-route included.
func (s *Sharded) DropsByFlow(flow int) int64 {
	total := s.NoRouteDrops(flow)
	for _, p := range s.ports {
		total += p.link.DropsByFlow(flow)
	}
	return total
}

// Run executes the scenario to completion on the given number of workers
// (≤ 0 means GOMAXPROCS). Worker w of n takes turns on queues w, w+n, … of
// the dependency order, pass after pass, and waits for the others when a
// pass moves nothing. The result, Digest included, is bit-for-bit
// independent of workers. Run leaves every queue's clock at the last event.
func (s *Sharded) Run(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	order := s.wire()
	for _, d := range order {
		d.done = math.Inf(-1)
	}
	workers = min(workers, len(order))
	s.windows = 0
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() { defer wg.Done(); s.work(order[w:], workers) }()
	}
	wg.Wait()
	end := 0.0
	for _, d := range order {
		end = max(end, d.q.Now())
	}
	for _, d := range order {
		d.q.RunBefore(end) // the queue is empty: this sets its clock
	}
}

// wire sets each domain's feeders, in queue order, and returns the domains
// each after those that feed it, or nil if the feeds close a cycle.
func (s *Sharded) wire() []*domain {
	for _, d := range s.domains {
		d.up = d.up[:0]
	}
	for k := range s.feeds {
		k[1].up = append(k[1].up, k[0])
	}
	state := make([]int8, len(s.domains)) // 1 while placing its feeders, 2 once placed
	var order []*domain
	var place func(d *domain) bool // reports whether d is placed
	place = func(d *domain) bool {
		if state[d.idx] == 0 {
			state[d.idx] = 1
			slices.SortFunc(d.up, func(a, b *domain) int { return a.idx - b.idx })
			if slices.ContainsFunc(d.up, func(u *domain) bool { return !place(u) }) {
				return false
			}
			state[d.idx] = 2
			order = append(order, d)
		}
		return state[d.idx] == 2
	}
	if slices.ContainsFunc(s.domains, func(d *domain) bool { return !place(d) }) {
		return nil
	}
	return order
}

// work takes turns on order[0], order[n], … until all of them are done.
func (s *Sharded) work(order []*domain, n int) {
	for left, passes := true, int64(1); left; passes++ {
		s.mu.Lock()
		seen := s.change
		s.mu.Unlock()
		left = false
		for i := 0; i < len(order); i += n {
			left = !math.IsInf(order[i].done, 1) && s.turn(order[i]) || left
		}
		s.mu.Lock()
		for left && s.change == seen {
			s.moved.Wait()
		}
		s.windows = max(s.windows, passes)
		s.mu.Unlock()
	}
}

// turn gives d one turn and reports whether d is left to run. A queue that
// no other feeds runs turnEvents events. Any other takes in, each once its
// events before the frame's departure have run, the frames handed over
// before the least progress of its feeders, then runs its events before it.
func (s *Sharded) turn(d *domain) bool {
	end := math.Inf(1)
	s.mu.Lock()
	for _, u := range d.up {
		end = min(end, u.done)
	}
	d.in, d.sent = append(d.in, d.sent...), d.sent[:0]
	s.mu.Unlock()
	switch {
	case len(d.up) == 0:
		for i := 0; i < turnEvents && d.q.Step(); i++ {
		}
		if t, ok := d.q.PeekTime(); ok {
			end = t
		}
	case end <= d.done:
		return true // no feeder has moved
	default:
		// By departure, then queue order; stable, so then by emission.
		slices.SortStableFunc(d.in, func(a, b handover) int { return cmp.Or(cmp.Compare(a.d, b.d), a.from-b.from) })
		n := 0
		for ; n < len(d.in) && d.in[n].d < end; n++ {
			d.q.RunBefore(d.in[n].d)
			d.q.AtCall(d.in[n].at, d.in[n].arrive, d.in[n].f)
		}
		d.in = d.in[:copy(d.in, d.in[n:])]
		if math.IsInf(end, 1) {
			d.q.Run()
		} else {
			d.q.RunBefore(end)
		}
	}
	s.mu.Lock()
	for _, h := range d.out {
		h.cross.sent = append(h.cross.sent, h)
	}
	d.out, d.done = d.out[:0], end
	s.change++
	s.moved.Broadcast()
	s.mu.Unlock()
	return !math.IsInf(end, 1)
}

// Digest summarizes the run deterministically: per link (sorted) the
// delivery/drop/queue counters and an FNV-64 hash over the monitor's full
// service-record trace, then per flow (sorted) the sink totals, or "sink
// custom" for a caller-supplied sink, and no-route drops. Exact float
// formatting makes any reordering or numeric drift change it.
func (s *Sharded) Digest() string {
	var b strings.Builder
	for _, p := range s.ports {
		h := fnv.New64a()
		for _, r := range p.mon.ServiceRecords() {
			fmt.Fprintf(h, "%d %s %s %s\n", r.Flow, fexact(r.Start), fexact(r.End), fexact(r.Bytes))
		}
		fmt.Fprintf(&b, "l %s delivered %d queued %d trace %016x", p.spec.Name,
			p.link.Delivered(), p.link.QueuedFrames(), h.Sum64())
		causes := p.link.DropsByCause()
		keys := make([]sim.DropCause, 0, len(causes))
		for c := range causes {
			keys = append(keys, c)
		}
		slices.Sort(keys)
		for _, c := range keys {
			fmt.Fprintf(&b, " x %s %d", c, causes[c])
		}
		b.WriteByte('\n')
	}
	flowIDs := make([]int, 0, len(s.flows))
	for f := range s.flows {
		flowIDs = append(flowIDs, f)
	}
	slices.Sort(flowIDs)
	for _, f := range flowIDs {
		if sk := s.flows[f].sink; sk != nil {
			fmt.Fprintf(&b, "f %d count %d bytes %s", f, sk.Count(f), fexact(sk.Bytes(f)))
		} else {
			fmt.Fprintf(&b, "f %d sink custom", f)
		}
		fmt.Fprintf(&b, " noroute %d\n", s.NoRouteDrops(f))
	}
	return b.String()
}

func fexact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
