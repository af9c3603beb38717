// Conservative-lookahead parallel execution of a multi-link topology.
//
// BuildSharded compiles the same declarative topology Build does, but
// gives every link its own event queue (a "domain"). Domains advance in
// lockstep windows of Δ = the minimum propagation delay of any
// cross-domain link: within a window [W, W+Δ) the domains are causally
// independent — a frame finishing transmission at endTx ∈ [W, W+Δ) cannot
// arrive at its next hop before endTx + PropDelay ≥ W + Δ — so the window
// can execute on GOMAXPROCS workers with no synchronization beyond the
// window barrier. Frames that cross domains are parked in per-domain
// outboxes and routed at the barrier, single-threaded, in deterministic
// order (domains sorted by link name, emission order within a domain), so
// Run(n) is bit-for-bit identical to Run(1) for every n — the same
// determinism contract conformance.RunMatrix makes for seed sharding, here
// applied inside a single scenario.
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
	"repro/internal/sim"
)

// ErrNoLookahead rejects a parallel topology whose cross-domain links have
// no propagation delay: the safe horizon would be zero and domains could
// never advance independently. Give inter-switch links a physical
// PropDelay (even 1µs of wire suffices).
var ErrNoLookahead = errors.New("topo: parallel execution needs PropDelay > 0 on every link that feeds another link")

// ErrCustomSink rejects FlowSpec.Sink in sharded mode: a caller-supplied
// consumer would be invoked from whichever worker owns the egress domain,
// silently racing with the caller's other state. Use the per-flow
// auto-sinks (Sharded.Sink) instead.
var ErrCustomSink = errors.New("topo: sharded topologies use auto-sinks; FlowSpec.Sink must be nil")

// outMsg is one frame in transit between domains: parked by value in the
// sending domain's outbox and routed at the window barrier, where the
// frame itself becomes the argument of the destination's deliver event —
// a hop allocates nothing.
type outMsg struct {
	f    *sim.Frame
	at   float64
	dest *domain
}

// hop is what a domain knows about one flow: where its frames go next.
type hop struct {
	next *domain // cross-domain next hop (nil when the flow terminates here)
	// toSink hands a frame to the flow's egress sink, as an event callback
	// for the post-propagation arrival (nil for cross-domain hops).
	toSink func(arg any)
}

// domain is one link compiled into its own event-queue shard.
type domain struct {
	name string
	q    *eventq.Queue
	link *sim.Link
	mon  *sim.Monitor
	spec LinkSpec

	hops        map[int]hop // flow → its next hop or egress sink
	feeds       bool        // some flow continues to another domain
	outbox      []outMsg    // cross-domain frames produced this window
	noRouteFlow map[int]int64

	// deliver is the event callback of a cross-domain arrival: it hands
	// its *sim.Frame argument to this domain's link.
	deliver func(arg any)
}

// Sharded is a compiled topology whose links run on independent event
// queues under conservative-lookahead windowing. Unlike Network, the flow
// set is fixed at build time: mid-run AddFlow/RemoveFlow would have to be
// choreographed across domain clocks, which is exactly the coordination
// the windowing exists to avoid.
type Sharded struct {
	domains   []*domain // sorted by link name: the deterministic barrier order
	byName    map[string]*domain
	flows     map[int]FlowSpec
	entry     map[int]*domain
	sinks     map[int]*sim.Sink
	lookahead float64
	windows   int64
}

// BuildSharded compiles the topology for parallel execution. It applies
// the same validation as Build (unique link names, contiguous routes,
// unique flow ids) plus the sharding constraints: every link that feeds
// another link must have PropDelay > 0 (the lookahead), and flows must use
// auto-sinks.
func BuildSharded(links []LinkSpec, flows []FlowSpec) (*Sharded, error) {
	s := &Sharded{
		byName: make(map[string]*domain),
		flows:  make(map[int]FlowSpec),
		entry:  make(map[int]*domain),
		sinks:  make(map[int]*sim.Sink),
	}
	for _, ls := range links {
		if _, dup := s.byName[ls.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateLink, ls.Name)
		}
		d := &domain{
			name:        ls.Name,
			q:           &eventq.Queue{},
			spec:        ls,
			hops:        make(map[int]hop),
			noRouteFlow: make(map[int]int64),
		}
		d.deliver = func(arg any) { d.link.Deliver(arg.(*sim.Frame)) }
		out := sim.ConsumerFunc(func(f *sim.Frame) {
			// The link transmits with PropDelay 0 (below); propagation is
			// applied here so cross-domain arrivals land at endTx + prop ≥
			// window start + lookahead, which is what makes the window safe.
			at := d.q.Now() + d.spec.PropDelay
			h, routed := d.hops[f.Flow]
			switch {
			case !routed:
				d.noRouteFlow[f.Flow]++
			case h.next != nil:
				d.outbox = append(d.outbox, outMsg{f: f, at: at, dest: h.next})
			case at > d.q.Now():
				d.q.AtCall(at, h.toSink, f)
			default:
				h.toSink(f)
			}
		})
		link := sim.NewLink(d.q, ls.Name, ls.Sched, ls.Proc, out)
		link.PropDelay = 0 // propagation handled at the domain boundary
		link.BufferBytes = ls.Buffer
		d.link = link
		d.mon = sim.MonitorAll(link)
		s.byName[ls.Name] = d
		s.domains = append(s.domains, d)
	}
	sort.Slice(s.domains, func(i, j int) bool { return s.domains[i].name < s.domains[j].name })

	for _, fs := range flows {
		if err := s.addFlow(fs); err != nil {
			return nil, err
		}
	}

	// Lookahead: the minimum propagation delay over links that feed
	// another link. Purely-egress links don't constrain the horizon.
	s.lookahead = math.Inf(1)
	for _, d := range s.domains {
		if !d.feeds {
			continue
		}
		if !(d.spec.PropDelay > 0) {
			return nil, fmt.Errorf("%w: %q", ErrNoLookahead, d.name)
		}
		if d.spec.PropDelay < s.lookahead {
			s.lookahead = d.spec.PropDelay
		}
	}
	return s, nil
}

func (s *Sharded) addFlow(fs FlowSpec) error {
	if _, dup := s.flows[fs.Flow]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateFlow, fs.Flow)
	}
	if len(fs.Route) == 0 {
		return fmt.Errorf("topo: flow %d has an empty route", fs.Flow)
	}
	if fs.Sink != nil {
		return fmt.Errorf("%w: flow %d", ErrCustomSink, fs.Flow)
	}
	for i, name := range fs.Route {
		d, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("%w: flow %d hop %q", ErrUnknownLink, fs.Flow, name)
		}
		if i > 0 {
			prev := s.byName[fs.Route[i-1]].spec
			if prev.To != d.spec.From {
				return fmt.Errorf("%w: flow %d: %q ends at %q but %q starts at %q",
					ErrBadRoute, fs.Flow, prev.Name, prev.To, d.spec.Name, d.spec.From)
			}
		}
		if err := d.link.Scheduler().AddFlow(fs.Flow, fs.Weight); err != nil {
			return fmt.Errorf("topo: flow %d on %q: %w", fs.Flow, name, err)
		}
	}
	for i, name := range fs.Route {
		d := s.byName[name]
		if i == len(fs.Route)-1 {
			sk := sim.NewSink(d.q)
			d.hops[fs.Flow] = hop{toSink: func(arg any) { sk.Deliver(arg.(*sim.Frame)) }}
			s.sinks[fs.Flow] = sk
		} else {
			d.hops[fs.Flow] = hop{next: s.byName[fs.Route[i+1]]}
			d.feeds = true
		}
	}
	s.entry[fs.Flow] = s.byName[fs.Route[0]]
	s.flows[fs.Flow] = fs
	return nil
}

// Entry returns the consumer a source should feed for the given flow (the
// first link of its route).
func (s *Sharded) Entry(flow int) sim.Consumer {
	d, ok := s.entry[flow]
	if !ok {
		panic(fmt.Sprintf("topo: unknown flow %d", flow))
	}
	return d.link
}

// EntryQueue returns the event queue of a flow's entry domain — the queue
// its traffic source must schedule on.
func (s *Sharded) EntryQueue(flow int) *eventq.Queue {
	d, ok := s.entry[flow]
	if !ok {
		panic(fmt.Sprintf("topo: unknown flow %d", flow))
	}
	return d.q
}

// Queue returns the named link's event queue (nil if unknown).
func (s *Sharded) Queue(name string) *eventq.Queue {
	if d := s.byName[name]; d != nil {
		return d.q
	}
	return nil
}

// Link returns the named link (nil if unknown).
func (s *Sharded) Link(name string) *sim.Link {
	if d := s.byName[name]; d != nil {
		return d.link
	}
	return nil
}

// Monitor returns the named link's monitor (nil if unknown).
func (s *Sharded) Monitor(name string) *sim.Monitor {
	if d := s.byName[name]; d != nil {
		return d.mon
	}
	return nil
}

// Sink returns the auto-created sink of a flow.
func (s *Sharded) Sink(flow int) *sim.Sink { return s.sinks[flow] }

// Lookahead returns the safe horizon Δ (infinite when no link feeds
// another: the whole scenario is then one window).
func (s *Sharded) Lookahead() float64 { return s.lookahead }

// Windows returns the number of lockstep windows the last Run executed.
func (s *Sharded) Windows() int64 { return s.windows }

// NoRouteDrops returns the frames of flow dropped for lack of a next hop,
// across all domains.
func (s *Sharded) NoRouteDrops(flow int) int64 {
	var total int64
	for _, d := range s.domains {
		total += d.noRouteFlow[flow]
	}
	return total
}

// Drops aggregates every drop in the network by cause.
func (s *Sharded) Drops() map[sim.DropCause]int64 {
	out := make(map[sim.DropCause]int64)
	var noRoute int64
	for _, d := range s.domains {
		for c, v := range d.link.DropsByCause() {
			out[c] += v
		}
		for _, v := range d.noRouteFlow {
			noRoute += v
		}
	}
	if noRoute > 0 {
		out[DropNoRoute] = noRoute
	}
	return out
}

// Run executes the scenario to completion on the given number of workers
// (≤ 0 means GOMAXPROCS). Within each window the workers steal whole
// domains off an atomic counter, exactly like conformance.RunMatrix steals
// seeds; the barrier then routes the outboxes single-threaded in sorted
// domain order. The result — every counter, monitor record, sink total,
// and the Digest — is bit-for-bit independent of workers.
func (s *Sharded) Run(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.windows = 0
	for {
		// Barrier: route last window's cross-domain frames. Deterministic:
		// domains in sorted order, outbox in emission order, so the
		// destination queues' (time, seq) tie order never depends on
		// worker interleaving.
		for _, d := range s.domains {
			for i, m := range d.outbox {
				m.dest.q.AtCall(m.at, m.dest.deliver, m.f)
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
		s.runWindow(tmin+s.lookahead, workers)
	}
}

func (s *Sharded) runWindow(end float64, workers int) {
	n := len(s.domains)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, d := range s.domains {
			runDomain(d.q, end)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runDomain(s.domains[i].q, end)
			}
		}()
	}
	wg.Wait()
}

func runDomain(q *eventq.Queue, end float64) {
	if math.IsInf(end, 1) {
		// Infinite lookahead (no cross-domain edges): drain completely
		// rather than dragging every clock to +Inf.
		q.Run()
		return
	}
	q.RunBefore(end)
}

// Digest summarizes the run deterministically: per link (sorted) the
// delivery/drop/queue counters and an FNV-64 hash over the monitor's full
// service-record trace, then per flow (sorted) the sink totals and
// no-route drops. Exact float formatting (strconv 'g', -1) makes the
// digest bit-sensitive: any reordering or numeric drift between a serial
// and a parallel run changes it.
func (s *Sharded) Digest() string {
	var b strings.Builder
	for _, d := range s.domains {
		h := fnv.New64a()
		for _, r := range d.mon.ServiceRecords() {
			fmt.Fprintf(h, "%d %s %s %s\n", r.Flow, fexact(r.Start), fexact(r.End), fexact(r.Bytes))
		}
		fmt.Fprintf(&b, "l %s delivered %d queued %d trace %016x", d.name,
			d.link.Delivered(), d.link.QueuedFrames(), h.Sum64())
		causes := d.link.DropsByCause()
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
		sk := s.sinks[f]
		fmt.Fprintf(&b, "f %d count %d bytes %s noroute %d\n",
			f, sk.Count(f), fexact(sk.Bytes(f)), s.NoRouteDrops(f))
	}
	return b.String()
}

func fexact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
