// Package obs is the simulator's observability layer: live per-link and
// per-flow metrics, a bounded trace ring of link events, and scheduler
// probes exposing tag/virtual-time evolution — all zero-overhead when not
// attached. A link with no Observer runs exactly the PR 3 hot path (one
// nil-probe branch per operation, zero allocations); an attached Observer
// only observes, so probed runs replay bit-identically to unprobed ones.
//
// The layer has two attachment points, matching the two kinds of signal a
// scheduler run produces:
//
//   - sched.Probe (installed via Link.SetProbe): the scheduler-side view —
//     per-operation counters and the system virtual time v(t) for
//     disciplines that implement sched.VirtualTimer.
//   - Link hooks (OnEnqueue/OnDepart/OnDrop, chained like sim.Monitor):
//     the link-side view — arrivals, departures, drops, queue depths.
//
// Unlike sim.Monitor — the replay-exact measurement instrument behind the
// paper's figures, which keeps whatever its consumers need — obs is the
// operational instrument: every structure here is fixed-size (counters,
// gauges, log-spaced histograms, an overwrite ring), so memory does not
// grow with run length.
package obs

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/sched"
	"repro/internal/sim"
)

// DefaultRateWindow is the EWMA averaging window K (seconds) of every
// per-flow throughput estimate.
const DefaultRateWindow = 0.1

// Option configures an Observer at attach time.
type Option func(*Observer)

// WithTraceCap sets the event trace-ring capacity; n <= 0 disables the
// ring entirely (metrics only).
func WithTraceCap(n int) Option {
	return func(o *Observer) { o.traceCap = n }
}

// Observer instruments one link: it is the sched.Probe installed on the
// link and the owner of the link-hook chain entries, the per-flow metric
// accumulators, and the trace ring. Create one with Observe; read it with
// Snapshot or Trace.
type Observer struct {
	link     *sim.Link
	traceCap int

	flows map[int]*flowStats

	delivered int64
	dropped   int64
	drops     map[sim.DropCause]int64

	hwmFrames int
	hwmBytes  float64

	vt        float64
	vtSamples int64

	probeEnq int64
	probeDeq int64

	now   float64 // time of the last observed event
	trace *TraceRing
}

// Observe attaches a new Observer to l: it installs the scheduler probe
// (replacing any previous one) and chains onto the link's
// OnEnqueue/OnDepart/OnDrop hooks, composing with an already-attached
// sim.Monitor in either order.
func Observe(l *sim.Link, opts ...Option) *Observer {
	o := &Observer{
		link:     l,
		traceCap: DefaultTraceCap,
		flows:    make(map[int]*flowStats),
		drops:    make(map[sim.DropCause]int64),
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.traceCap > 0 {
		o.trace = NewTraceRing(o.traceCap)
	}
	l.SetProbe(o)
	prevEnq, prevDep, prevDrop := l.OnEnqueue, l.OnDepart, l.OnDrop
	l.OnEnqueue = func(f *sim.Frame, now float64) {
		o.onEnqueue(f, now)
		if prevEnq != nil {
			prevEnq(f, now)
		}
	}
	l.OnDepart = func(f *sim.Frame, start, end float64) {
		o.onDepart(f, start, end)
		if prevDep != nil {
			prevDep(f, start, end)
		}
	}
	l.OnDrop = func(f *sim.Frame, cause sim.DropCause) {
		o.onDrop(f, cause)
		if prevDrop != nil {
			prevDrop(f, cause)
		}
	}
	return o
}

// flow returns (allocating on first use) the stats of one flow.
func (o *Observer) flow(id int) *flowStats {
	fs, ok := o.flows[id]
	if !ok {
		fs = &flowStats{
			drops: make(map[sim.DropCause]int64),
			rate:  rateEWMA{k: DefaultRateWindow},
		}
		o.flows[id] = fs
	}
	return fs
}

// OnEnqueue implements sched.Probe.
func (o *Observer) OnEnqueue(now float64, p *sched.Packet) { o.probeEnq++ }

// OnDequeue implements sched.Probe.
func (o *Observer) OnDequeue(now float64, p *sched.Packet) { o.probeDeq++ }

// OnVirtualTime implements sched.Probe: a last-value gauge of v(t).
func (o *Observer) OnVirtualTime(now, v float64) {
	o.vt = v
	o.vtSamples++
}

func (o *Observer) onEnqueue(f *sim.Frame, now float64) {
	o.now = now
	fs := o.flow(f.Flow)
	fs.arrivedPkts++
	fs.arrivedBytes += f.Bytes
	if qb := o.link.FlowQueuedBytes(f.Flow); qb > fs.hwmBytes {
		fs.hwmBytes = qb
	}
	if qf := o.link.QueuedFrames(); qf > o.hwmFrames {
		o.hwmFrames = qf
	}
	if qb := o.link.QueuedBytes(); qb > o.hwmBytes {
		o.hwmBytes = qb
	}
	if o.trace != nil {
		o.trace.Push(Event{Time: now, Kind: EvArrive, Flow: f.Flow, Seq: f.Seq, Bytes: f.Bytes})
	}
}

func (o *Observer) onDepart(f *sim.Frame, start, end float64) {
	o.now = end
	o.delivered++
	fs := o.flow(f.Flow)
	fs.servedPkts++
	fs.servedBytes += f.Bytes
	fs.rate.observe(end, f.Bytes)
	fs.delay.Observe(end - f.Arrived)
	if o.trace != nil {
		o.trace.Push(Event{Time: end, Kind: EvDepart, Flow: f.Flow, Seq: f.Seq, Bytes: f.Bytes})
	}
}

func (o *Observer) onDrop(f *sim.Frame, cause sim.DropCause) {
	now := o.link.Now()
	o.now = now
	o.dropped++
	o.drops[cause]++
	fs := o.flow(f.Flow)
	fs.drops[cause]++
	if o.trace != nil {
		o.trace.Push(Event{Time: now, Kind: EvDrop, Flow: f.Flow, Seq: f.Seq, Bytes: f.Bytes, Cause: cause})
	}
}

// Trace returns the observer's event ring (nil if disabled).
func (o *Observer) Trace() *TraceRing { return o.trace }

// Snapshot deep-copies every counter and gauge at this instant. The
// result shares no state with the observer, and its JSON encoding is
// byte-deterministic for a deterministic run (flows sorted, map keys
// sorted by encoding/json).
func (o *Observer) Snapshot() Snapshot {
	s := Snapshot{
		Link:          o.link.Name,
		Now:           o.now,
		Delivered:     o.delivered,
		Dropped:       o.dropped,
		HWMFrames:     o.hwmFrames,
		HWMBytes:      o.hwmBytes,
		VT:            o.vt,
		VTSamples:     o.vtSamples,
		ProbeEnqueues: o.probeEnq,
		ProbeDequeues: o.probeDeq,
		Flows:         snapshotFlows(o.flows),
	}
	for c, n := range o.drops {
		if s.Drops == nil {
			s.Drops = make(map[string]int64, len(o.drops))
		}
		s.Drops[string(c)] = n
	}
	if o.trace != nil {
		s.TraceLen = o.trace.Len()
		s.TraceDropped = o.trace.Overwritten()
	}
	return s
}

// Registry collects the Observers of a simulation, keyed by link name —
// the one handle a command needs to instrument a topology and dump
// everything at the end. Not safe for concurrent use; a simulation is
// single-threaded and parallel harnesses (conformance RunMatrix) give
// each shard its own registry.
type Registry struct {
	obs map[string]*Observer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{obs: make(map[string]*Observer)} }

// Observe attaches an Observer to l and registers it under the link's
// name. Two links with the same name in one registry is a wiring bug and
// panics.
func (r *Registry) Observe(l *sim.Link, opts ...Option) *Observer {
	if _, dup := r.obs[l.Name]; dup {
		panic("obs: duplicate link name in registry: " + l.Name)
	}
	o := Observe(l, opts...)
	r.obs[l.Name] = o
	return o
}

// Get returns the observer of a link by name (nil if absent).
func (r *Registry) Get(name string) *Observer { return r.obs[name] }

// Links returns the registered link names, sorted.
func (r *Registry) Links() []string {
	names := make([]string, 0, len(r.obs))
	for n := range r.obs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot snapshots every registered observer, sorted by link name.
func (r *Registry) Snapshot() []Snapshot {
	out := make([]Snapshot, 0, len(r.obs))
	for _, n := range r.Links() {
		out = append(out, r.obs[n].Snapshot())
	}
	return out
}

// WriteJSON writes the registry snapshot as indented JSON — the
// expvar-style dump format of sfqsim --metrics and PeriodicDump.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
