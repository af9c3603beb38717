package rt_test

import (
	"testing"

	_ "repro/internal/core"
	"repro/internal/rt"
	"repro/internal/sched"
)

// FuzzShardMigration drives a random op stream — add, enqueue, dequeue,
// migrate, remove, batched enqueue and dequeue, Len, FlowAccount — against
// a small sharded runtime and checks the conservation and placement
// invariants after every op: the shard assignment is always in range, the
// per-flow ledger matches the packets the op stream actually pushed and
// popped and balances against the bytes still queued, Len is the sum of
// what every flow has queued, and a full drain leaves nothing stranded (a
// migration must never lose or duplicate a packet, wherever a pushed
// packet waits to be drained). RemoveFlow drops the ledgers of shards that
// hold none of the flow's bytes, so after one the op stream carries on from
// what survives — which must balance against the bytes still queued.
func FuzzShardMigration(f *testing.F) {
	f.Add(uint8(2), []byte{0x00, 0x11, 0x12, 0x23, 0x31})
	f.Add(uint8(1), []byte{0x00, 0x10, 0x10, 0x20, 0x40})
	f.Add(uint8(4), []byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x11, 0x12, 0x13, 0x37, 0x3f, 0x20, 0x21, 0x22, 0x23})
	f.Add(uint8(3), []byte{0x07, 0x17, 0x47, 0x07, 0x17, 0x37, 0x27})
	f.Add(uint8(2), []byte{0x00, 0x01, 0x5f, 0x5a, 0x39, 0x6f, 0x51, 0x70, 0x80, 0x31, 0x61, 0x41, 0x5e, 0x6f})
	f.Fuzz(func(t *testing.T, shards uint8, ops []byte) {
		n := int(shards)%4 + 1
		r, err := rt.New("sfq", sched.WithShards(n), sched.WithClock(&sched.ManualClock{}))
		if err != nil {
			t.Fatal(err)
		}
		const flows = 8
		var pushed, popped [flows]int64
		seq := int64(0)
		buf := make([]*sched.Packet, 4)
		for _, b := range ops {
			op := int(b>>4) % 9
			arg := int(b & 0x0f)
			flow := arg % flows
			switch op {
			case 0:
				_ = r.AddFlow(flow, float64(1+arg))
			case 1:
				seq++
				if err := r.Enqueue(&sched.Packet{Flow: flow, Seq: seq, Length: float64(1 + arg)}); err == nil {
					pushed[flow]++
				}
			case 2:
				if p, ok := r.DequeueShard(arg % n); ok {
					popped[p.Flow]++
				}
			case 3:
				_ = r.MigrateFlow(flow, arg/flows*(n-1)) // dst 0 or n-1
			case 4:
				if r.RemoveFlow(flow) == nil {
					acct := r.FlowAccount(flow)
					pushed[flow], popped[flow] = acct.Enqueued, acct.Dequeued
				}
			case 5:
				// Flows arg, arg+3, arg+6, ...: a batch over every shard,
				// with unregistered flows among them. An accepted packet is
				// stamped; a refused one keeps Arrival -1.
				batch := make([]*sched.Packet, 1+arg%6)
				for i := range batch {
					seq++
					batch[i] = &sched.Packet{Flow: (arg + 3*i) % flows, Seq: seq, Length: float64(1 + i), Arrival: -1}
				}
				k, _ := r.EnqueueBatch(batch)
				for _, p := range batch {
					if p.Arrival >= 0 {
						pushed[p.Flow]++
						k--
					}
				}
				if k != 0 {
					t.Fatalf("EnqueueBatch count off by %d from the packets it stamped", k)
				}
			case 6:
				for _, p := range buf[:r.DequeueBatch(arg%n, buf[:1+arg%4])] {
					popped[p.Flow]++
				}
			case 7:
				var want int64
				for fl := range pushed {
					want += pushed[fl] - popped[fl]
				}
				if got := r.Len(); int64(got) != want {
					t.Fatalf("Len = %d, the op stream holds %d", got, want)
				}
			case 8:
				checkLedger(t, r, flow, pushed[flow], popped[flow])
			}
			for fl := 0; fl < flows; fl++ {
				// Placement invariant: a registered flow's live shard is
				// always a real shard.
				if s, err := r.FlowShard(fl); err == nil && (s < 0 || s >= n) {
					t.Fatalf("flow %d on shard %d of %d", fl, s, n)
				}
				checkLedger(t, r, fl, pushed[fl], popped[fl])
				if acct := r.FlowAccount(fl); acct.EnqueuedBytes-acct.DequeuedBytes != r.QueuedBytes(fl) {
					t.Fatalf("flow %d: ledger %+v, %v bytes queued", fl, acct, r.QueuedBytes(fl))
				}
			}
		}
		// Drain everything and settle the books.
		for {
			p, ok := r.Dequeue()
			if !ok {
				break
			}
			popped[p.Flow]++
		}
		if got := r.Len(); got != 0 {
			t.Fatalf("Len = %d after full drain", got)
		}
		for fl := 0; fl < flows; fl++ {
			if pushed[fl] != popped[fl] {
				t.Fatalf("flow %d: pushed %d, popped %d", fl, pushed[fl], popped[fl])
			}
			checkLedger(t, r, fl, pushed[fl], popped[fl])
			if acct := r.FlowAccount(fl); acct.EnqueuedBytes != acct.DequeuedBytes {
				t.Fatalf("flow %d: %v bytes in, %v out", fl, acct.EnqueuedBytes, acct.DequeuedBytes)
			}
		}
	})
}

func checkLedger(t *testing.T, r *rt.Runtime, flow int, pushed, popped int64) {
	t.Helper()
	if acct := r.FlowAccount(flow); acct.Enqueued != pushed || acct.Dequeued != popped {
		t.Fatalf("flow %d: ledger %+v, op stream %d/%d", flow, acct, pushed, popped)
	}
}
