package sched

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestFlowQChunkLifecycle pushes through several chunk boundaries and
// checks FIFO order, byte accounting, chunk recycling, and that a drained
// FIFO keeps no chunk.
func TestFlowQChunkLifecycle(t *testing.T) {
	var pool ChunkPool
	fq := NewFlowQ(7)
	if fq.ID() != 7 {
		t.Fatalf("ID() = %d", fq.ID())
	}

	const n = 3*flowChunkSize + 5
	const chunks = (n + flowChunkSize - 1) / flowChunkSize // filled front to back
	pkts := make([]*Packet, n)
	wantBytes := 0.0
	for i := 0; i < n; i++ {
		pkts[i] = &Packet{Flow: 7, Seq: int64(i), Length: float64(100 + i)}
		fq.Push(&pool, float64(i), 0, uint64(i+1), pkts[i])
		wantBytes += pkts[i].Length
		if fq.Len() != i+1 {
			t.Fatalf("Len after push %d = %d", i, fq.Len())
		}
		if fq.QueuedBytes() != wantBytes {
			t.Fatalf("QueuedBytes after push %d = %v, want %v", i, fq.QueuedBytes(), wantBytes)
		}
	}

	for i := 0; i < n; i++ {
		if p, key := fq.Head(); p != pkts[i] || key != float64(i) {
			t.Fatalf("Head before pop %d = (%v, %v)", i, p, key)
		}
		p := fq.Pop(&pool)
		if p != pkts[i] {
			t.Fatalf("pop %d: got seq %d, want %d", i, p.Seq, int64(i))
		}
		wantBytes -= p.Length
		if i == n-1 {
			wantBytes = 0
		}
		if fq.QueuedBytes() != wantBytes {
			t.Fatalf("QueuedBytes after pop %d = %v, want %v", i, fq.QueuedBytes(), wantBytes)
		}
	}
	if fq.Len() != 0 || fq.QueuedBytes() != 0 {
		t.Fatalf("drained queue: Len=%d bytes=%v", fq.Len(), fq.QueuedBytes())
	}
	if p, _ := fq.Head(); p != nil {
		t.Fatalf("Head of empty queue = %v", p)
	}
	// Every chunk was recycled during the drain, the last as it emptied.
	if pool.Len() != chunks || fq.heldChunks() != 0 {
		t.Fatalf("after drain: %d pooled, %d held; want %d and 0", pool.Len(), fq.heldChunks(), chunks)
	}

	// Release of a drained FIFO has nothing to hand back.
	fq.Release(&pool)
	if pool.Len() != chunks {
		t.Fatalf("pooled chunks after Release = %d, want %d", pool.Len(), chunks)
	}

	// The released queue is reusable, now drawing from the pool.
	fq.Push(&pool, 1, 0, uint64(n+1), &Packet{Flow: 7, Length: 50})
	if pool.Len() != chunks-1 || fq.Len() != 1 || fq.QueuedBytes() != 50 {
		t.Fatalf("reuse after Release: pool=%d len=%d bytes=%v", pool.Len(), fq.Len(), fq.QueuedBytes())
	}
}

// TestFlowQReleaseMidBacklog releases a queue that still holds packets
// spanning multiple chunks (the chaos-churn path), its head chunk a ring
// that wraps, and checks every chunk returns to the pool zeroed.
func TestFlowQReleaseMidBacklog(t *testing.T) {
	var pool ChunkPool
	fq := NewFlowQ(1)
	push := func(i int) { fq.Push(&pool, float64(i), 0, uint64(i+1), &Packet{Flow: 1, Length: 10}) }
	// Pop all but one so the front is at slot front, then fill the ring
	// past the wrap point and two chunks behind it: flowChunkSize−1 items
	// finish the ring, a full chunk and 3 more follow.
	const front = flowChunkSize - 3
	for i := 0; i <= front; i++ {
		push(i)
	}
	for i := 0; i < front; i++ {
		fq.Pop(&pool)
	}
	for i := front + 1; i < front+1+2*flowChunkSize+2; i++ {
		push(i)
	}
	if fq.hi != front || fq.hn != flowChunkSize || fq.heldChunks() != 3 {
		t.Fatalf("setup: front at slot %d, %d in the head ring, %d chunks", fq.hi, fq.hn, fq.heldChunks())
	}
	fq.Release(&pool)
	if fq.Len() != 0 || fq.QueuedBytes() != 0 {
		t.Fatalf("after Release: len=%d bytes=%v", fq.Len(), fq.QueuedBytes())
	}
	if pool.Len() != 3 {
		t.Fatalf("pooled chunks = %d, want 3", pool.Len())
	}
	for c := pool.free; c != nil; c = c.next {
		for i := range c.items {
			if c.items[i] != (flowItem{}) {
				t.Fatalf("pooled chunk slot %d not zeroed: %+v", i, c.items[i])
			}
		}
	}
}

// TestFlowHeapOrdersLikeSort cross-checks FlowHeap's pop sequence against
// sorting all items by (key, sub, serial) — the strict total order the
// schedulers rely on — over randomized multi-flow contents.
func TestFlowHeapOrdersLikeSort(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var fs FlowSet
		nf := 1 + rng.Intn(8)
		type rec struct {
			key    float64
			serial int
			flow   int
		}
		var all []rec
		serial := 0
		lastKey := make(map[int]float64)
		for i := 0; i < 200; i++ {
			f := 1 + rng.Intn(nf)
			// Per-flow nondecreasing keys, with deliberate cross-flow ties.
			k := lastKey[f] + float64(rng.Intn(3))
			lastKey[f] = k
			serial++
			fs.Push(f, k, 0, &Packet{Flow: f, Seq: int64(serial), Length: 1})
			all = append(all, rec{key: k, serial: serial, flow: f})
		}
		// Expected order: by key, then push serial (sub is constant).
		expect := append([]rec(nil), all...)
		for i := 1; i < len(expect); i++ { // insertion sort keeps the test dependency-free
			for j := i; j > 0 && (expect[j].key < expect[j-1].key ||
				(expect[j].key == expect[j-1].key && expect[j].serial < expect[j-1].serial)); j-- {
				expect[j], expect[j-1] = expect[j-1], expect[j]
			}
		}
		for i, want := range expect {
			p := fs.PopMin()
			if p == nil || int(p.Seq) != want.serial {
				t.Fatalf("seed %d pop %d: got %v, want serial %d", seed, i, p, want.serial)
			}
		}
		if fs.PopMin() != nil || fs.Len() != 0 || fs.Backlogged() != 0 {
			t.Fatalf("seed %d: leftovers after full drain", seed)
		}
	}
}

// TestFlowHeapRemove exercises Remove from arbitrary heap positions.
func TestFlowHeapRemove(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var fs FlowSet
		nf := 2 + rng.Intn(10)
		for f := 1; f <= nf; f++ {
			key := 0.0
			for j := 0; j < 1+rng.Intn(4); j++ {
				key += rng.Float64() // nondecreasing within the flow
				fs.Push(f, key, 0, &Packet{Flow: f, Length: 8})
			}
		}
		victim := 1 + rng.Intn(nf)
		before := fs.Len()
		dropped := fs.FlowLen(victim)
		fs.Drop(victim)
		if fs.Len() != before-dropped || fs.FlowLen(victim) != 0 || fs.QueuedBytes(victim) != 0 {
			t.Fatalf("seed %d: Drop bookkeeping off", seed)
		}
		// Remaining packets still pop in nondecreasing key order.
		prev := -1.0
		for {
			p, key := fs.Peek()
			if p == nil {
				break
			}
			if key < prev {
				t.Fatalf("seed %d: key order broken after Drop: %v after %v", seed, key, prev)
			}
			prev = key
			if p.Flow == victim {
				t.Fatalf("seed %d: dropped flow still scheduled", seed)
			}
			fs.PopMin()
		}
	}
}

// TestFlowSetDropReleasesChunks pins the RemoveFlow contract: a drained
// flow has already handed every chunk back, dropping it returns none, and
// other flows reuse the pooled chunks.
func TestFlowSetDropReleasesChunks(t *testing.T) {
	var fs FlowSet
	for i := 0; i < flowChunkSize+1; i++ {
		fs.Push(1, float64(i), 0, &Packet{Flow: 1, Length: 4})
	}
	for fs.Len() > 0 {
		fs.PopMin()
	}
	// Both chunks recycled during the drain, the second as the flow went idle.
	if fs.PooledChunks() != 2 {
		t.Fatalf("pooled after drain = %d, want 2", fs.PooledChunks())
	}
	fs.Drop(1)
	if fs.PooledChunks() != 2 {
		t.Fatalf("pooled after Drop = %d, want 2", fs.PooledChunks())
	}
	// A different flow's growth reuses the released chunks: no allocation.
	pkts := make([]*Packet, 2*flowChunkSize)
	for i := range pkts {
		pkts[i] = &Packet{Flow: 2, Length: 4}
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i, p := range pkts {
			fs.Push(2, float64(i), 0, p)
		}
		for fs.Len() > 0 {
			fs.PopMin()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %v times per run", allocs)
	}
}

// TestIdleFlowsHoldNoChunk: a flow's FIFO memory follows its backlog. One
// packet through each of 4 096 flows in turn leaves every flow idle and the
// one chunk they took turns with in the pool, and a second pass allocates
// nothing: the records exist and the chunk is reused.
func TestIdleFlowsHoldNoChunk(t *testing.T) {
	const flows = 4096
	var fs FlowSet
	p := &Packet{Length: 100}
	pass := func() {
		for f := 0; f < flows; f++ {
			p.Flow = f
			fs.Push(f, float64(f), 0, p)
			if got := fs.PopMin(); got != p {
				t.Fatalf("flow %d: popped %v", f, got)
			}
		}
	}
	pass()
	if fs.PooledChunks() != 1 || fs.pool.made != 1 {
		t.Fatalf("after one pass over %d flows: %d pooled, %d made; want 1 and 1", flows, fs.PooledChunks(), fs.pool.made)
	}
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Fatalf("second pass allocated %v times", allocs)
	}
}

// heldChunks counts the chunks fq holds.
func (fq *FlowQ) heldChunks() int {
	n := 0
	for c := fq.head; c != nil; c = c.next {
		n++
	}
	return n
}

// TestFlowSetSteadyStateZeroAlloc is the scale analogue of the PR 3 heap
// guards: with many backlogged flows, enqueue/dequeue churn must not
// allocate once chunks and heap slots exist.
func TestFlowSetSteadyStateZeroAlloc(t *testing.T) {
	var fs FlowSet
	const nf = 256
	pkts := make([]*Packet, nf)
	for f := 0; f < nf; f++ {
		pkts[f] = &Packet{Flow: f, Length: 100}
		fs.Push(f, float64(f), 0, pkts[f])
	}
	key := float64(nf)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < nf; i++ {
			p := fs.PopMin()
			key++
			fs.Push(p.Flow, key, 0, p)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FlowSet churn allocated %v times per run", allocs)
	}
}

// TestFlowSetZeroValueByID pins the surface bench/ladder.go's flowSetLoop
// compiles and runs against, so a break shows here and not in the benchmark
// driver: a zero-value FlowSet, Push(flow, key, sub, p) on flows nobody
// registered, PopMin() handing back the packet whose Flow says where the
// next arrival goes. Pop order must follow the per-flow finish-tag chains.
func TestFlowSetZeroValueByID(t *testing.T) {
	const flows, standing, ops, length = 16, 4, 4096, 500.0
	var fs FlowSet
	var pool PacketPool
	tags := make([]float64, flows)
	push := func(f int) {
		p := pool.Get()
		p.Flow, p.Length = f, length
		fs.Push(f, tags[f], 0, p)
		tags[f] += length / float64(1+f%8)
	}
	for i := 0; i < standing; i++ {
		for f := 0; f < flows; f++ {
			push(f)
		}
	}
	next, last := 0, 0.0
	for i := 0; i < ops; i++ {
		push(next)
		_, key := fs.Peek()
		out := fs.PopMin()
		if out == nil || key < last {
			t.Fatalf("op %d: popped %v under key %v after key %v", i, out, key, last)
		}
		next, last = out.Flow, key
		pool.Put(out)
	}
	if fs.Len() != flows*standing || fs.Backlogged() == 0 {
		t.Fatalf("after %d paired ops: Len %d (want %d), Backlogged %d", ops, fs.Len(), flows*standing, fs.Backlogged())
	}
	if err := fs.CheckSlots(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < flows; f++ {
		if fs.Get(f).Weight != 0 || len(fs.ListFlows()) != 0 {
			t.Fatalf("pushing by id registered flow %d", f)
		}
	}
}

// TestFlowSetReadsDoNotInsert: FlowLen and FlowBytes (and the QueuedBytes
// every discipline answers with) for 1 000 flows the set never saw return
// zero and leave the flow table the size it was.
func TestFlowSetReadsDoNotInsert(t *testing.T) {
	var fs FlowSet
	fs.Push(1, 0, 0, &Packet{Flow: 1, Length: 10})
	if err := fs.Add(2, 5); err != nil {
		t.Fatal(err)
	}
	for id := 1000; id < 2000; id++ {
		if n, b, q := fs.FlowLen(id), fs.QueuedBytes(id), fs.QueuedBytes(id); n != 0 || b != 0 || q != 0 {
			t.Fatalf("unseen flow %d: len %d, bytes %v, queued %v", id, n, b, q)
		}
		fs.SetFlowKey(id, 1, 1)
	}
	if fs.index.n != 2 || fs.held() != 1 || len(fs.ListFlows()) != 1 {
		t.Fatalf("reading 1000 unknown flows left %d entries, %d records and %d registered flows, want 2, 1 and 1", fs.index.n, fs.held(), len(fs.ListFlows()))
	}
	if fs.FlowLen(1) != 1 || fs.QueuedBytes(1) != 10 {
		t.Fatalf("flow 1: len %d, bytes %v", fs.FlowLen(1), fs.QueuedBytes(1))
	}
}

// TestFlowRecordMadeOnFirstPacket: registering a flow writes its registry
// slot and nothing else; the record appears with the flow's first packet
// and, SCFQ being self-clocked, goes back when its busy period ends. The
// control plane treats the two kinds of registered flow alike.
func TestFlowRecordMadeOnFirstPacket(t *testing.T) {
	s := NewSCFQ()
	for f := 1; f <= 100; f++ {
		if err := s.AddFlow(f, float64(f)); err != nil {
			t.Fatal(err)
		}
	}
	if s.q.fs.held() != 0 || len(s.ListFlows()) != 100 {
		t.Fatalf("after 100 AddFlow: %d records, %d flows; want 0 and 100", s.q.fs.held(), len(s.ListFlows()))
	}
	if err := s.Enqueue(0, &Packet{Flow: 3, Length: 9}); err != nil {
		t.Fatal(err)
	}
	if s.q.fs.held() != 1 || s.q.fs.Get(3).Weight != 3 {
		t.Fatalf("after one packet: %d records, flow 3 = %+v", s.q.fs.held(), s.q.fs.Get(3))
	}
	if err := s.SetWeight(3, 30); err != nil || s.q.fs.Get(3).Weight != 30 {
		t.Fatalf("SetWeight on a flow with a record: %v, weight %v", err, s.q.fs.Get(3).Weight)
	}
	if got := s.q.fs.CaptureAccounting(); len(got) != 100 || got[2] != (FlowAccounting{Flow: 3, Weight: 30, Bytes: 9, Count: 1}) || got[4] != (FlowAccounting{Flow: 5, Weight: 5}) {
		t.Fatalf("accounting rows: %d, row 3 %+v, row 5 %+v", len(got), got[2], got[4])
	}
	if err := s.RemoveFlow(5); err != nil { // silent: no record to release
		t.Fatal(err)
	}
	if err := s.DrainFlow(6); err != nil || len(s.ListFlows()) != 98 { // silent: removed at once
		t.Fatalf("DrainFlow(6) = %v with %d flows left", err, len(s.ListFlows()))
	}
	if err := s.Enqueue(0, &Packet{Flow: 5, Length: 9}); err == nil || s.q.fs.held() != 1 {
		t.Fatalf("enqueue on a removed flow: %v, %d records", err, s.q.fs.held())
	}
	if _, ok := s.Dequeue(1); !ok {
		t.Fatal("flow 3's packet was not served")
	}
	if s.q.fs.held() != 1 {
		t.Fatalf("record released with the server still busy: %d records", s.q.fs.held())
	}
	if _, ok := s.Dequeue(2); ok || s.q.fs.held() != 0 || s.q.fs.Get(3) != nil || len(s.ListFlows()) != 98 || s.q.fs.Weight(3) != 30 {
		t.Fatalf("after the busy period: %d records, flow 3's %v, %d flows, flow 3 weight %v", s.q.fs.held(), s.q.fs.Get(3), len(s.ListFlows()), s.q.fs.Weight(3))
	}
}

// TestFlowRecordSize: a flow record fits in 112 bytes, one Go size class
// below two cache lines, with the weight and the SFQ finish tag in the
// first line beside the FIFO in the release build. The schedassert build
// adds the push assert's memory of the last push, which sits in the FIFO
// and is taken out here so both builds check the same layout.
func TestFlowRecordSize(t *testing.T) {
	extra := unsafe.Sizeof(pushAssert{})
	if n := unsafe.Sizeof(Flow{}) - extra; n > 112 {
		t.Errorf("sched.Flow is %d bytes in the release build, want <= 112", n)
	}
	var f Flow
	for _, fd := range []struct {
		name string
		off  uintptr
	}{{"Weight", unsafe.Offsetof(f.Weight)}, {"LastFinish", unsafe.Offsetof(f.LastFinish)}} {
		if off := fd.off - extra; off >= 64 {
			t.Errorf("sched.Flow.%s is at offset %d in the release build, want < 64", fd.name, off)
		}
	}
}

// TestFlowQWrapsInOneChunk: a FIFO that fits in one chunk uses it as a
// ring, so a shallow flow never slides onto a second chunk, items are
// addressed right across the wrap point, and a deep FIFO drained back to
// one chunk wraps in it again.
func TestFlowQWrapsInOneChunk(t *testing.T) {
	type model struct {
		fq   FlowQ
		pool ChunkPool
		q    []*Packet
		seq  int
	}
	push := func(m *model) {
		m.seq++
		p := &Packet{Flow: 1, Seq: int64(m.seq), Length: 1}
		m.fq.Push(&m.pool, float64(m.seq), 0, uint64(m.seq), p)
		m.q = append(m.q, p)
	}
	pop := func(t *testing.T, m *model) {
		t.Helper()
		if p := m.fq.Pop(&m.pool); p != m.q[0] {
			t.Fatalf("popped seq %d, want %d", p.Seq, m.q[0].Seq)
		}
		m.q = m.q[1:]
	}
	checkAt := func(t *testing.T, m *model) {
		t.Helper()
		if m.fq.Len() != len(m.q) {
			t.Fatalf("Len %d, model %d", m.fq.Len(), len(m.q))
		}
		for k, want := range m.q {
			if got := m.fq.at(k); got != want {
				t.Fatalf("at(%d) with hi %d = seq %d, want %d", k, m.fq.hi, got.Seq, want.Seq)
			}
		}
	}

	t.Run("steady depth", func(t *testing.T) {
		for depth := 1; depth <= flowChunkSize; depth++ {
			var m model
			for i := 0; i < depth; i++ {
				push(&m)
			}
			for pops := 1; pops <= 5*flowChunkSize; pops++ {
				pop(t, &m)
				push(&m)
				if pops >= flowChunkSize && (m.fq.heldChunks() != 1 || m.pool.made != 1) {
					t.Fatalf("depth %d after %d pops: %d chunks held, %d made; want 1 and 1",
						depth, pops, m.fq.heldChunks(), m.pool.made)
				}
				checkAt(t, &m)
			}
		}
	})

	t.Run("at across the wrap", func(t *testing.T) {
		for hi := 0; hi < flowChunkSize; hi++ {
			var m model
			for i := 0; i <= hi; i++ {
				push(&m)
			}
			for i := 0; i < hi; i++ {
				pop(t, &m)
			}
			if int(m.fq.hi) != hi {
				t.Fatalf("front at slot %d, want %d", m.fq.hi, hi)
			}
			// Fill the ring, then spill flowChunkSize/2+1 items into a
			// second chunk.
			for m.fq.Len() < flowChunkSize+flowChunkSize/2+1 {
				push(&m)
				checkAt(t, &m)
			}
			if m.fq.heldChunks() != 2 {
				t.Fatalf("hi %d: %d chunks for %d items, want 2", hi, m.fq.heldChunks(), m.fq.Len())
			}
			for len(m.q) > 0 {
				pop(t, &m)
				checkAt(t, &m)
			}
			if m.fq.heldChunks() != 0 || m.pool.Len() != 2 {
				t.Fatalf("hi %d drained: %d held, %d pooled", hi, m.fq.heldChunks(), m.pool.Len())
			}
		}
	})

	t.Run("deep then shallow", func(t *testing.T) {
		var m model
		const deep = 2*flowChunkSize + flowChunkSize/2
		for i := 0; i < deep; i++ {
			push(&m)
		}
		if m.fq.heldChunks() != 3 {
			t.Fatalf("%d items in %d chunks, want 3", deep, m.fq.heldChunks())
		}
		// The items fill two whole chunks and half a third: the head chunk
		// empties after flowChunkSize pops and the second after twice that,
		// leaving the last as the ring.
		for i := 1; i <= 2*flowChunkSize; i++ {
			pop(t, &m)
			if want := 3 - i/flowChunkSize; m.fq.heldChunks() != want {
				t.Fatalf("after %d pops: %d chunks held, want %d", i, m.fq.heldChunks(), want)
			}
			checkAt(t, &m)
		}
		// Back to one chunk, the FIFO wraps in it at every depth up to
		// flowChunkSize.
		for i := 0; i < 4*flowChunkSize; i++ {
			if len(m.q) < flowChunkSize && i%3 != 0 {
				push(&m)
			} else {
				pop(t, &m)
			}
			if len(m.q) > 0 && m.fq.heldChunks() != 1 {
				t.Fatalf("step %d, %d items: %d chunks held, want 1", i, len(m.q), m.fq.heldChunks())
			}
			checkAt(t, &m)
		}
		if m.pool.made != 3 {
			t.Fatalf("%d chunks made, want 3", m.pool.made)
		}
	})
}

// TestRestoreAccountingRejectsBadRows: a weight that is not a finite
// positive number, or a count the FIFO's int32 cannot hold, is bad state.
// Each is refused before anything changes, so the registry keeps its flows,
// weights and backlog.
func TestRestoreAccountingRejectsBadRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  FlowAccounting
	}{
		{"NaN weight", FlowAccounting{Flow: 3, Weight: math.NaN(), Bytes: 10, Count: 1}},
		{"+Inf weight", FlowAccounting{Flow: 3, Weight: math.Inf(1), Bytes: 10, Count: 1}},
		{"count 1<<31", FlowAccounting{Flow: 3, Weight: 1, Bytes: 10, Count: 1 << 31}},
		{"count 1<<32+1", FlowAccounting{Flow: 3, Weight: 1, Bytes: 10, Count: 1<<32 + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fs FlowSet
			if err := fs.Add(1, 5); err != nil {
				t.Fatal(err)
			}
			if err := fs.Add(2, 7); err != nil {
				t.Fatal(err)
			}
			fs.Push(2, 0, 0, &Packet{Flow: 2, Length: 4})
			before := fs.CaptureAccounting()
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("restoreAccounting panicked: %v", r)
					}
				}()
				err = fs.restoreAccounting([]FlowAccounting{{Flow: 1, Weight: 2}, tc.row})
			}()
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("restoreAccounting = %v, want ErrBadState", err)
			}
			if after := fs.CaptureAccounting(); !reflect.DeepEqual(after, before) {
				t.Fatalf("registry changed by a refused restore: %+v, was %+v", after, before)
			}
			if fs.FlowLen(2) != 1 || fs.Len() != 1 {
				t.Fatalf("backlog changed: flow 2 holds %d, total %d", fs.FlowLen(2), fs.Len())
			}
		})
	}

	// Through DRR, whose refill check compares the restored count with the
	// packets it re-queues: a count that truncated to 1 would pass it.
	s := NewDRR(1500)
	if err := s.AddFlow(4, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, &Packet{Flow: 4, Length: 100}); err != nil {
		t.Fatal(err)
	}
	data, err := s.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	var st drrState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st.Flows[0].Count = 1<<32 + 1
	if data, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := NewDRR(1500).RestoreState(data); !errors.Is(err, ErrBadState) {
		t.Fatalf("DRR restore with count 1<<32+1 = %v, want ErrBadState", err)
	}
}
