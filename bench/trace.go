package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// Tracing lives entirely in the benchmark: spans are recorded around calls
// into each layer through the seams the product already exposes (the
// sched.Interface, server.Process and sim.Consumer interfaces, sched.Probe,
// and plain timing around top-level calls). Nothing in the product knows it
// is being traced.
//
// A span is (name, parent, start, end). Spans are aggregated in memory per
// (name, parent) — count, total, and a histogram for p50/p99 — and one raw
// span in rawEvery is kept for the trace file. A layer's self time is its
// span total minus the totals of the spans recorded with it as parent.

const rawEvery = 1024

// rawSpan is one retained span, times in ns since the tracer's epoch.
type rawSpan struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanKey struct{ name, parent string }

// track records the spans of one thread of control. The product's layers
// are single-threaded per domain (an event-queue domain, a runtime shard
// under its lock, a driver goroutine), so each gets its own track and no
// span costs a lock; tracer.merge sums them when the run ends.
type track struct {
	epoch time.Time
	// root is the parent given to spans begun with an empty stack — the
	// span on another track this track's work runs inside (a shard's
	// discipline calls run inside the caller's EnqueueBatch/DequeueBatch).
	root  string
	stack []open
	aggs  map[spanKey]*hist
	raw   []rawSpan
	seen  int
}

type open struct {
	name  string
	start time.Time
}

func newTrack(epoch time.Time, root string) *track {
	return &track{epoch: epoch, root: root, aggs: make(map[spanKey]*hist)}
}

func (t *track) begin(name string) {
	t.stack = append(t.stack, open{name, time.Now()})
}

// end closes the innermost open span and returns its duration.
func (t *track) end() time.Duration { return t.endUnder(t.root) }

// endUnder is end for a track whose enclosing span on another track differs
// per call (a shard's Enqueue runs inside the caller's EnqueueBatch, its
// Dequeue inside DequeueBatch): root is the parent when the stack is empty.
func (t *track) endUnder(root string) time.Duration {
	now := time.Now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	parent := root
	if n > 0 {
		parent = t.stack[n-1].name
	}
	d := now.Sub(o.start)
	t.record(o.name, parent, o.start, d)
	return d
}

func (t *track) record(name, parent string, start time.Time, d time.Duration) {
	k := spanKey{name, parent}
	a := t.aggs[k]
	if a == nil {
		a = &hist{}
		t.aggs[k] = a
	}
	a.add(int64(d))
	if t.seen%rawEvery == 0 {
		s := start.Sub(t.epoch).Nanoseconds()
		t.raw = append(t.raw, rawSpan{Name: name, Parent: parent, Start: s, End: s + int64(d)})
	}
	t.seen++
}

// tracer owns the tracks of one traced run.
type tracer struct {
	epoch  time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track returns a new track whose stack-less spans hang under root. Tracks
// must be created before the goroutines that use them start.
func (tr *tracer) track(root string) *track {
	t := newTrack(tr.epoch, root)
	tr.tracks = append(tr.tracks, t)
	return t
}

// spanStat is the aggregate of one span name under one parent.
type spanStat struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Count   uint64  `json:"count"`
	TotalNs uint64  `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

// traceSummary is what a traced run leaves behind: the aggregates, looked
// up by the per-layer metrics, and the sampled raw spans for the file.
type traceSummary struct {
	Spans []spanStat `json:"spans"`
	Raw   []rawSpan  `json:"raw_sampled_1_in_1024"`

	byName map[string]*hist
	child  map[string]uint64 // total ns of spans whose parent is the key
}

func (tr *tracer) merge() *traceSummary {
	merged := make(map[spanKey]*hist)
	var raw []rawSpan
	for _, t := range tr.tracks {
		for k, a := range t.aggs {
			h := merged[k]
			if h == nil {
				h = &hist{}
				merged[k] = h
			}
			h.merge(a)
		}
		raw = append(raw, t.raw...)
	}
	sum := &traceSummary{Raw: raw, byName: make(map[string]*hist), child: make(map[string]uint64)}
	for k, h := range merged {
		sum.child[k.parent] += h.total
		bn := sum.byName[k.name]
		if bn == nil {
			bn = &hist{}
			sum.byName[k.name] = bn
		}
		bn.merge(h)
	}
	for k, h := range merged {
		sum.Spans = append(sum.Spans, spanStat{
			Name: k.name, Parent: k.parent, Count: h.n, TotalNs: h.total,
			P50Ns: h.quantile(0.5), P99Ns: h.quantile(0.99),
		})
	}
	sort.Slice(sum.Spans, func(i, j int) bool {
		a, b := sum.Spans[i], sum.Spans[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Parent < b.Parent
	})
	// Self time is per name (children do not say under which parent their
	// parent ran), apportioned to the name's rows by their share of its time.
	for i := range sum.Spans {
		s := &sum.Spans[i]
		nameTotal := sum.byName[s.Name].total
		if nameTotal > 0 {
			s.SelfNs = int64(float64(sum.selfNs(s.Name)) * float64(s.TotalNs) / float64(nameTotal))
		}
	}
	sort.Slice(sum.Raw, func(i, j int) bool { return sum.Raw[i].Start < sum.Raw[j].Start })
	return sum
}

// count, totalNs and p50 read the aggregate of one span name over all
// of its parents; they read zero for a name never recorded.
func (s *traceSummary) count(name string) uint64 {
	if h := s.byName[name]; h != nil {
		return h.n
	}
	return 0
}

func (s *traceSummary) totalNs(name string) uint64 {
	if h := s.byName[name]; h != nil {
		return h.total
	}
	return 0
}

func (s *traceSummary) p50(name string) float64 {
	if h := s.byName[name]; h != nil {
		return h.quantile(0.5)
	}
	return 0
}

// selfNs is the span's total minus the total of its children.
func (s *traceSummary) selfNs(name string) int64 {
	return int64(s.totalNs(name)) - int64(s.child[name])
}

// writeTrace writes the trace file of one workload under dir.
func writeTrace(dir, workload string, seed int64, sum *traceSummary) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		*traceSummary
	}{workload, seed, sum}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// Span names. The prefix is the layer the time is charged to.
const (
	spSchedEnq    = "sched.enqueue"
	spSchedDeq    = "sched.dequeue"
	spServerFin   = "server.finish"
	spLinkDeliver = "sim.link_deliver"
	spTopoRun     = "topo.sharded_run"
	spRtEnqBatch  = "rt.enqueue_batch"
	spRtDeqBatch  = "rt.dequeue_batch"
	spAdmitSubmit = "rt.admit_submit"
	spAdmitFinish = "rt.admit_finish"
	spAdmitCancel = "rt.admit_cancel"
	spSnapshot    = "liveops.snapshot"
	spRestore     = "liveops.restore"
)

// tracedSched decorates a discipline: every Enqueue and Dequeue becomes a
// span on its track. It forwards pool safety so the link or runtime above
// keeps recycling packets exactly as it does untraced.
type tracedSched struct {
	sched.Interface
	t *track
	// enqRoot/deqRoot name the spans on another track that these calls run
	// inside when this track's own stack is empty.
	enqRoot, deqRoot string
}

func (s *tracedSched) Enqueue(now float64, p *sched.Packet) error {
	s.t.begin(spSchedEnq)
	err := s.Interface.Enqueue(now, p)
	s.t.endUnder(s.enqRoot)
	return err
}

func (s *tracedSched) Dequeue(now float64) (*sched.Packet, bool) {
	s.t.begin(spSchedDeq)
	p, ok := s.Interface.Dequeue(now)
	s.t.endUnder(s.deqRoot)
	return p, ok
}

func (s *tracedSched) PacketPoolSafe() bool { return sched.PoolSafeScheduler(s.Interface) }

// V forwards the virtual clock of disciplines that have one, so a probe
// attached above the decorator still receives OnVirtualTime.
func (s *tracedSched) V() float64 {
	if vt, ok := s.Interface.(sched.VirtualTimer); ok {
		return vt.V()
	}
	return 0
}

// tracedProc decorates a capacity process.
type tracedProc struct {
	server.Process
	t *track
}

func (p *tracedProc) Finish(t, bytes float64) float64 {
	p.t.begin(spServerFin)
	end := p.Process.Finish(t, bytes)
	p.t.end()
	return end
}

// tracedConsumer wraps the sim.Consumer at a link's entry.
type tracedConsumer struct {
	next sim.Consumer
	t    *track
}

func (c *tracedConsumer) Deliver(f *sim.Frame) {
	c.t.begin(spLinkDeliver)
	c.next.Deliver(f)
	c.t.end()
}
