// Package topo builds multi-node simulation topologies declaratively:
// named nodes joined by links (each with its own scheduler and capacity
// process) and static per-flow routes that end in a sink.
//
// One engine runs every topology. Build puts all links on the caller's
// event queue as one domain; BuildSharded gives each link its own queue. A
// hop to a link on the same queue is scheduled at endTx + PropDelay, or
// delivered synchronously when the delay is 0. A hop to another queue is
// parked in an outbox, and domains advance in lockstep windows of Δ = the
// minimum PropDelay over hops that cross queues: a frame leaving at
// endTx ∈ [W, W+Δ) cannot reach another queue before W + Δ, so a window
// runs on several workers with no other synchronization. The barrier
// routes the outboxes single-threaded (domains sorted by link name,
// emission order within a domain), so Run(n) is bit-for-bit Run(1).
//
// AddFlow and RemoveFlow may be called from any event of a one-domain
// engine, and between Runs of any engine. A frame that reaches a switch
// or sink after its flow was torn down is dropped under DropNoRoute.
package topo

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// DropNoRoute tags frames that arrived at a switch with no next hop for
// their flow (the flow was removed while frames were still in flight, or
// was never routed).
const DropNoRoute sim.DropCause = "no-route"

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

	// ErrNoLookahead rejects a hop that crosses queues with no propagation
	// delay: the safe horizon would be zero. Give inter-switch links a
	// physical PropDelay (even 1µs of wire suffices).
	ErrNoLookahead = errors.New("topo: parallel execution needs PropDelay > 0 on every link that feeds another queue")

	// ErrCustomSink rejects FlowSpec.Sink on an engine with more than one
	// queue: the consumer would run on whichever worker owns the egress
	// domain, racing with the caller. Use the auto-sinks (Sharded.Sink).
	ErrCustomSink = errors.New("topo: sharded topologies use auto-sinks; FlowSpec.Sink must be nil")
)

// domain is one event queue and what its links emit within a window.
type domain struct {
	q       *eventq.Queue
	outbox  []outMsg      // cross-queue frames produced this window
	noRoute map[int]int64 // per flow
}

// outMsg is one frame in transit between domains, parked by value until
// the barrier makes the frame the argument of its arrival event.
type outMsg struct {
	f  *sim.Frame
	at float64
	h  hop
}

// port is one link compiled onto a domain.
type port struct {
	spec LinkSpec
	dom  *domain
	link *sim.Link
	mon  *sim.Monitor
	hops map[int]hop // flow → how its frames go on from here
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
	domains []*domain // the barrier order
	ports   []*port   // sorted by link name
	byName  map[string]*port
	flows   map[int]*flow
	windows int64
}

// Build compiles the topology onto q, every link in one domain. Routes
// must be contiguous (each link's To equals the next link's From). Drive
// it with q.Run, or with Run, which then executes a single window.
func Build(q *eventq.Queue, links []LinkSpec, flows []FlowSpec) (*Sharded, error) {
	return build(links, flows, func() *eventq.Queue { return q })
}

// BuildSharded compiles the topology for parallel execution, every link on
// its own queue. On top of Build's validation, a link that feeds another
// needs PropDelay > 0 (the lookahead), and flows must use auto-sinks.
func BuildSharded(links []LinkSpec, flows []FlowSpec) (*Sharded, error) {
	return build(links, flows, func() *eventq.Queue { return &eventq.Queue{} })
}

// build puts each link, in name order, on the queue that queue returns.
func build(links []LinkSpec, flows []FlowSpec, queue func() *eventq.Queue) (*Sharded, error) {
	s := &Sharded{byName: make(map[string]*port), flows: make(map[int]*flow)}
	links = append([]LinkSpec(nil), links...)
	sort.SliceStable(links, func(i, j int) bool { return links[i].Name < links[j].Name })
	var d *domain
	for _, ls := range links {
		if _, dup := s.byName[ls.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateLink, ls.Name)
		}
		if q := queue(); d == nil || d.q != q {
			d = &domain{q: q, noRoute: make(map[int]int64)}
			s.domains = append(s.domains, d)
		}
		p := &port{spec: ls, dom: d, hops: make(map[int]hop)}
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
	switch {
	case !ok:
		// Never routed, or torn down while in service: count, not crash.
		p.dom.noRoute[f.Flow]++
	case h.cross != nil:
		p.dom.outbox = append(p.dom.outbox, outMsg{f: f, at: p.dom.q.Now() + p.spec.PropDelay, h: h})
	case p.spec.PropDelay > 0:
		p.dom.q.AfterCall(p.spec.PropDelay, h.arrive, f)
	default:
		h.arrive(f)
	}
}

// arrival is the event callback that hands a frame of fl to next, running
// on domain d; a frame whose flow was removed in flight drops there.
func arrival(fl *flow, d *domain, next sim.Consumer) func(arg any) {
	return func(arg any) {
		if f := arg.(*sim.Frame); !fl.removed {
			next.Deliver(f)
		} else {
			d.noRoute[f.Flow]++
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
			if route[i-1].dom != p.dom && !(prev.PropDelay > 0) {
				return fmt.Errorf("%w: %q", ErrNoLookahead, prev.Name)
			}
		}
		route[i] = p
	}
	for i, p := range route {
		if err := p.link.Scheduler().AddFlow(fs.Flow, fs.Weight); err != nil {
			for _, r := range route[:i] {
				_ = r.link.Scheduler().RemoveFlow(fs.Flow) // undoes the AddFlow above; nothing is queued yet
			}
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
		to, d := next, p.dom // the last hop arrives at the sink
		if i+1 < len(route) {
			to, d = route[i+1].link, route[i+1].dom
		}
		h := hop{arrive: arrival(fl, d, to)}
		if d != p.dom {
			h.cross = d
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
	fl.removed = true
	delete(s.flows, id)
	return nil
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

// Lookahead returns Δ, the minimum PropDelay over hops that cross queues
// (+Inf when none does: a Run is then one window).
func (s *Sharded) Lookahead() float64 {
	la := math.Inf(1)
	for _, fl := range s.flows {
		for i, p := range fl.route[1:] {
			if prev := fl.route[i]; prev.dom != p.dom {
				la = math.Min(la, prev.spec.PropDelay)
			}
		}
	}
	return la
}

// Windows returns the number of lockstep windows the last Run executed.
func (s *Sharded) Windows() int64 { return s.windows }

// NoRouteDrops returns the frames of flow dropped for lack of a next hop.
func (s *Sharded) NoRouteDrops(flow int) int64 {
	var total int64
	for _, d := range s.domains {
		total += d.noRoute[flow]
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
	}
	for _, d := range s.domains {
		for _, v := range d.noRoute {
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
// (≤ 0 means GOMAXPROCS). Within each window the workers steal whole
// domains off an atomic counter, as conformance.RunMatrix steals seeds.
// The result, Digest included, is bit-for-bit independent of workers.
func (s *Sharded) Run(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lookahead := s.Lookahead()
	s.windows = 0
	for {
		// Barrier: route last window's cross-domain frames in a fixed order,
		// so (time, seq) ties never depend on worker interleaving.
		for _, d := range s.domains {
			for i, m := range d.outbox {
				m.h.cross.q.AtCall(m.at, m.h.arrive, m.f)
				d.outbox[i] = outMsg{}
			}
			d.outbox = d.outbox[:0]
		}
		// Next window: [earliest pending event, +Δ).
		tmin := math.Inf(1)
		for _, d := range s.domains {
			if t, ok := d.q.PeekTime(); ok && t < tmin {
				tmin = t
			}
		}
		if math.IsInf(tmin, 1) {
			return // no pending events anywhere and nothing routed
		}
		s.windows++
		s.runWindow(tmin+lookahead, workers)
	}
}

// runWindow runs every domain up to end on min(workers, domains)
// goroutines, or on the caller's when that is one.
func (s *Sharded) runWindow(end float64, workers int) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(s.domains); i = int(next.Add(1)) - 1 {
			if q := s.domains[i].q; math.IsInf(end, 1) {
				q.Run() // no hop crosses queues: drain, not drag clocks to +Inf
			} else {
				q.RunBefore(end)
			}
		}
	}
	if workers = min(workers, len(s.domains)); workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() { defer wg.Done(); work() }()
	}
	wg.Wait()
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
		keys := make([]string, 0, len(causes))
		for c := range causes {
			keys = append(keys, string(c))
		}
		sort.Strings(keys)
		for _, c := range keys {
			fmt.Fprintf(&b, " x %s %d", c, causes[sim.DropCause(c)])
		}
		b.WriteByte('\n')
	}
	flowIDs := make([]int, 0, len(s.flows))
	for f := range s.flows {
		flowIDs = append(flowIDs, f)
	}
	sort.Ints(flowIDs)
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
