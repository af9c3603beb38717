package sched

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestSelfClockedRecordsReleased: 4 096 registered sfq flows each send one
// packet, 64 flows to a busy period as the sched-sporadic benchmark sends
// them, and every busy period ends with the empty Dequeue that jumps v.
// Afterwards the scheduler holds no flow record, and its live heap is at
// most 80 bytes per registered flow: the registry slots and the pooled
// records, chunks and heap arrays the widest busy period needed.
func TestSelfClockedRecordsReleased(t *testing.T) {
	const flows, burst, perFlow = 4096, 64, 80
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := MustNewRanked(RankSFQ(TieFIFO), Config{})
	for f := 0; f < flows; f++ {
		if err := s.AddFlow(f, float64(100+f%8*100)); err != nil {
			t.Fatal(err)
		}
	}
	now := 0.0
	for first := 0; first < flows; first += burst {
		for f := first; f < first+burst; f++ {
			now += 1e-6
			if err := s.Enqueue(now, &Packet{Flow: f, Length: float64(64 + f%1437)}); err != nil {
				t.Fatal(err)
			}
		}
		if held := s.q.fs.held(); held != burst {
			t.Fatalf("busy period from flow %d: %d records held, want %d", first, held, burst)
		}
		for {
			now += 1e-6
			if _, ok := s.Dequeue(now); !ok {
				break
			}
		}
	}
	if held := s.q.fs.held(); held != 0 || len(s.q.fs.recs) != burst {
		t.Fatalf("after the last busy period: %d records held, %d pooled; want 0 and %d", held, len(s.q.fs.recs), burst)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / flows
	t.Logf("live heap %d B per registered flow", got)
	if got > perFlow {
		t.Errorf("live heap %d B per registered flow, want at most %d", got, perFlow)
	}
	if len(s.ListFlows()) != flows {
		t.Fatalf("%d flows registered", len(s.ListFlows()))
	}
	runtime.KeepAlive(s)
}

// TestBackloggedFlowCost: 4 096 registered sfq flows each queue 4 packets,
// as the sched-backlogged benchmark keeps them. Each FIFO then holds one
// chunk, a ring, and the scheduler's live heap is at most 400 bytes per
// flow in the release build: its registry slots, its record, its chunk and
// its heap member. The packets are allocated before the first read, so
// they do not count, and the first read follows two collections, so that
// what the first leaves for the next to free (37 KB when the test runs
// alone) does not offset the flows' cost.
func TestBackloggedFlowCost(t *testing.T) {
	const flows, depth, perFlow = 4096, 4, 400
	pkts := make([]Packet, flows*depth)
	for i := range pkts {
		pkts[i] = Packet{Flow: i % flows, Length: float64(64 + i%1437)}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := MustNewRanked(RankSFQ(TieFIFO), Config{})
	for f := 0; f < flows; f++ {
		if err := s.AddFlow(f, float64(100+f%8*100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pkts {
		if err := s.Enqueue(float64(i)*1e-6, &pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if made := s.q.fs.pool.made; made != flows {
		t.Fatalf("%d FIFO chunks made for %d flows %d deep, want %d", made, flows, depth, flows)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The schedassert build's records carry the last push beside the FIFO.
	got := (int64(after.HeapAlloc)-int64(before.HeapAlloc))/flows - int64(unsafe.Sizeof(pushAssert{}))
	t.Logf("live heap %d B per backlogged flow in the release build", got)
	if got > perFlow {
		t.Errorf("live heap %d B per backlogged flow, want at most %d", got, perFlow)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(pkts)
}

// TestRecordsOutliveBusyPeriodUnlessSelfClocked: a busy period's end gives
// the records back in the self-clocked rank functions only. Virtual Clock's
// expected-arrival chain, EDD's and the fluid reference's chains outlive
// it, so those tables keep every record; a next start tag read from a
// released SFQ or SCFQ record is v, as eq (4) gives it from the old chain.
func TestRecordsOutliveBusyPeriodUnlessSelfClocked(t *testing.T) {
	for _, tc := range []struct {
		name    string
		s       *Ranked
		release bool
	}{
		{"sfq", MustNewRanked(RankSFQ(TieFIFO), Config{}), true},
		{"sfq-lowweight", MustNewRanked(RankSFQ(TieLowWeightFirst), Config{}), true},
		{"scfq", NewSCFQ(), true},
		{"vclock", NewVirtualClock(), false},
		{"edd", NewEDD().Ranked, false},
		{"wfq", NewWFQ(1000), false},
		{"fifo", NewFIFO(), false},
	} {
		s := tc.s
		for f := 1; f <= 3; f++ {
			if err := s.AddFlow(f, 100); err != nil {
				t.Fatal(err)
			}
		}
		for f := 1; f <= 3; f++ {
			if err := s.Enqueue(0, &Packet{Flow: f, Length: float64(100 * f)}); err != nil {
				t.Fatal(err)
			}
		}
		for now := 0.1; ; now += 0.1 {
			if _, ok := s.Dequeue(now); !ok {
				break
			}
		}
		want := 3
		if tc.release {
			want = 0
		}
		if got := s.q.fs.held(); got != want {
			t.Errorf("%s: %d records after the busy period, want %d", tc.name, got, want)
		}
		if tc.release {
			p := &Packet{Flow: 3, Length: 1}
			if err := s.Enqueue(1, p); err != nil || p.VirtualStart != s.V() {
				t.Errorf("%s: start tag %v after the busy period, want v = %v (%v)", tc.name, p.VirtualStart, s.V(), err)
			}
		}
	}
}

// TestStaleHeapMemberCaught: a record whose epoch ended while its flow was
// backlogged — what a release inside a busy period would leave — fails
// CheckSlots.
func TestStaleHeapMemberCaught(t *testing.T) {
	var fs FlowSet
	fs.Push(1, 0, 0, &Packet{Flow: 1, Length: 1})
	if err := fs.CheckSlots(); err != nil {
		t.Fatal(err)
	}
	fs.epoch++
	if err := fs.CheckSlots(); err == nil {
		t.Fatal("CheckSlots passed a heap member of an older epoch")
	}
}
