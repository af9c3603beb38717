package sched

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential pin of FairAirport against refFairAirport, the
// entry-slice implementation it replaced: one op stream drives both, and
// every dequeued packet's (flow, seq), ASQ tags, Len and every flow's
// QueuedBytes must agree bit for bit. Snapshot → restore → continue swaps
// in a restored FairAirport mid-stream; the reference runs on, so a restore
// must continue the schedule exactly.

var (
	faDiffWeights = []float64{1, 10, 100, 1000}
	faDiffLengths = []float64{1, 10, 64.3, 100, 0.7, 1500, 33.3, 512}
	faDiffRates   = []float64{0.5, 50, 5000, 0.3}
)

const faDiffFlows = 4

type faDiffRig struct {
	t   testing.TB
	s   *FairAirport
	ref *refFairAirport
	now float64
	seq int64
	op  int
}

func (r *faDiffRig) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("op %d (t=%v): %s", r.op, r.now, fmt.Sprintf(format, args...))
}

func (r *faDiffRig) both(what string, a, b error) {
	r.t.Helper()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		r.fail("%s: got %v, reference %v", what, a, b)
	}
}

func (r *faDiffRig) enqueue(flow int, length, rate, arrival float64) {
	r.seq++
	mk := func() *Packet {
		return &Packet{Flow: flow, Seq: r.seq, Length: length, Rate: rate, Arrival: arrival}
	}
	r.both("Enqueue", r.s.Enqueue(r.now, mk()), r.ref.Enqueue(r.now, mk()))
}

func (r *faDiffRig) dequeue() bool {
	r.t.Helper()
	p, ok := r.s.Dequeue(r.now)
	q, qok := r.ref.Dequeue(r.now)
	if ok != qok {
		r.fail("Dequeue ok=%v, reference %v", ok, qok)
	}
	if ok && (p.Flow != q.Flow || p.Seq != q.Seq ||
		math.Float64bits(p.VirtualStart) != math.Float64bits(q.VirtualStart) ||
		math.Float64bits(p.VirtualFinish) != math.Float64bits(q.VirtualFinish)) {
		r.fail("Dequeue %d:%d tags (%v, %v), reference %d:%d (%v, %v)",
			p.Flow, p.Seq, p.VirtualStart, p.VirtualFinish, q.Flow, q.Seq, q.VirtualStart, q.VirtualFinish)
	}
	return ok
}

// restore swaps in a FairAirport restored from a snapshot of the current
// one; the restored state must marshal to the same bytes.
func (r *faDiffRig) restore() {
	r.t.Helper()
	data, err := r.s.AppendState(nil)
	if err != nil {
		r.fail("AppendState: %v", err)
	}
	s := MustNew("fairairport").(*FairAirport)
	if err := s.RestoreState(data); err != nil {
		r.fail("RestoreState: %v\n%s", err, data)
	}
	again, err := s.AppendState(nil)
	if err != nil || !bytes.Equal(again, data) {
		r.fail("restored state marshals differently (%v)\n got %s\nwant %s", err, again, data)
	}
	r.s = s
}

// check compares the counters and verifies both heaps' indexes.
func (r *faDiffRig) check() {
	r.t.Helper()
	if r.s.Len() != r.ref.Len() {
		r.fail("Len %d, reference %d", r.s.Len(), r.ref.Len())
	}
	for f := 1; f <= faDiffFlows; f++ {
		if a, b := r.s.QueuedBytes(f), r.ref.QueuedBytes(f); math.Float64bits(a) != math.Float64bits(b) {
			r.fail("QueuedBytes(%d) %v, reference %v", f, a, b)
		}
	}
	if err := r.s.asq.CheckSlots(); err != nil {
		r.fail("ASQ: %v", err)
	}
	for i, rel := range r.s.reg.rs {
		if int(rel.f.regPos) != i || i > 0 && rel.less(&r.s.reg.rs[(i-1)/2]) {
			r.fail("regulator slot %d: flow %d at %d", i, rel.f.flow, rel.f.regPos)
		}
	}
}

// runFADiff interprets ops two bytes at a time: an op code and its
// argument. Enqueues (with or without a per-packet rate, stamped now or up
// to 7 s earlier, as a packet held upstream is), dequeues after short or
// long (idle) gaps, removal and re-registration of a flow, a re-weight, and
// snapshot → restore.
func runFADiff(t testing.TB, ops []byte) {
	r := newFADiffRig(t)
	for i := 0; i+1 < len(ops); i += 2 {
		r.op = i / 2
		code, arg := ops[i], int(ops[i+1])
		flow := arg%faDiffFlows + 1
		switch code % 8 {
		case 0, 1, 2:
			rate := 0.0
			if code&0x80 != 0 {
				rate = faDiffRates[arg/16%len(faDiffRates)]
			}
			arrival := r.now
			if code&0x40 != 0 {
				arrival = math.Max(0, r.now-float64(arg%8))
			}
			r.enqueue(flow, faDiffLengths[arg/4%len(faDiffLengths)], rate, arrival)
		case 3, 4:
			r.dequeue()
			r.now += float64(arg) * 0.01
		case 5:
			r.now += float64(arg)
			r.dequeue()
		case 6:
			err := r.s.RemoveFlow(flow)
			r.both("RemoveFlow", err, r.ref.RemoveFlow(flow))
			if err == nil {
				w := faDiffWeights[arg/4%len(faDiffWeights)]
				r.both("AddFlow", r.s.AddFlow(flow, w), r.ref.AddFlow(flow, w))
			}
		case 7:
			if arg%2 == 0 {
				r.restore()
			} else {
				w := faDiffWeights[arg/8%len(faDiffWeights)] * 3
				r.both("AddFlow", r.s.AddFlow(flow, w), r.ref.AddFlow(flow, w))
			}
		}
		r.check()
	}
	r.drain()
}

// newFADiffRig registers flows 1..faDiffFlows with faDiffWeights on both
// schedulers.
func newFADiffRig(t testing.TB) *faDiffRig {
	r := &faDiffRig{t: t, s: MustNew("fairairport").(*FairAirport), ref: newRefFairAirport()}
	for f := 1; f <= faDiffFlows; f++ {
		w := faDiffWeights[f-1]
		r.both("AddFlow", r.s.AddFlow(f, w), r.ref.AddFlow(f, w))
	}
	return r
}

// drain dequeues, long after every release is due, until both are empty.
func (r *faDiffRig) drain() {
	r.op = -1
	for r.now += 1e4; r.dequeue(); {
		r.check()
	}
}

// TestFairAirportDeepBacklog keeps every flow more than five chunks deep
// while the regulator promotes faster than the link serves, so the promoted
// prefix of each FIFO grows across several chunk boundaries and every
// release walks them (FlowQ.at). Dequeues must equal the reference's.
func TestFairAirportDeepBacklog(t *testing.T) {
	r := newFADiffRig(t)
	// One regulator release per second or so on every flow (weights 1, 10,
	// 100, 1000 bytes/s), while the link serves two packets a second.
	lengths := []float64{1, 10, 100, 1500}
	const depth = 6 * flowChunkSize
	deepest, promoted := make([]int, faDiffFlows+1), make([]int, faDiffFlows+1)
	for round := 0; round < 4; round++ {
		for f := 1; f <= faDiffFlows; f++ {
			for r.s.flows.QueuedCount(f) < depth {
				r.enqueue(f, lengths[f-1], 0, r.now)
			}
		}
		for i := 0; i < depth; i++ {
			r.op++
			r.dequeue()
			r.now += 0.5
			for f := 1; f <= faDiffFlows; f++ {
				rec := r.s.flows.Get(f)
				deepest[f] = max(deepest[f], rec.Len())
				promoted[f] = max(promoted[f], int(rec.promoted))
			}
			r.check()
		}
	}
	r.drain()
	for f := 1; f <= faDiffFlows; f++ {
		if deepest[f] < 5*flowChunkSize || promoted[f] < 2*flowChunkSize {
			t.Errorf("flow %d: %d packets deep at most, %d promoted; want >= %d and >= %d",
				f, deepest[f], promoted[f], 5*flowChunkSize, 2*flowChunkSize)
		}
	}
}

// faBurst queues 200 one-byte packets on flow 4 and dequeues after a gap
// in which all of them become eligible, so the regulator walks its FIFO
// across chunk boundaries; then a snapshot with 199 promoted packets.
func faBurst() []byte {
	var ops []byte
	for i := 0; i < 200; i++ {
		ops = append(ops, 0, 3)
	}
	return append(ops, 5, 10, 7, 0, 5, 1)
}

// faStale has the ASQ send flow 1's held packet A2 at 0, whose release at
// 1 stays pending; flow 2's first packet arrives at 1 and is released then
// too. The stale release runs out first and only then arms A3, so B1 is
// promoted before A3 and, their stamps tying at 2, is served first.
var faStale = []byte{0, 0, 0, 0, 0, 0, 3, 0, 3, 100, 0, 5, 3, 0}

func TestFairAirportMatchesReference(t *testing.T) {
	t.Run("burst", func(t *testing.T) { runFADiff(t, faBurst()) })
	t.Run("stale", func(t *testing.T) { runFADiff(t, faStale) })
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runFADiff(t, ops) })
	}
}

func FuzzFairAirport(f *testing.F) {
	f.Add(faBurst())
	f.Add(faStale)
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runFADiff(t, ops)
	})
}
