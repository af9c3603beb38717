package rt_test

import (
	"testing"

	_ "repro/internal/core"
	"repro/internal/rt"
	"repro/internal/sched"
)

// FuzzShardMigration drives a random op stream — add, enqueue, dequeue,
// migrate, remove — against a small sharded runtime and checks the
// conservation and placement invariants after every program: the shard
// assignment is always in range, the per-flow ledger matches the packets
// the driver actually pushed and popped, and a full drain leaves nothing
// stranded (a migration must never lose or duplicate a packet). RemoveFlow
// drops the ledgers of shards that hold none of the flow's bytes, so the
// driver checks the ledger before each remove and, after one, carries on
// from what survives — which must balance against the bytes still queued.
func FuzzShardMigration(f *testing.F) {
	f.Add(uint8(2), []byte{0x00, 0x11, 0x12, 0x23, 0x31})
	f.Add(uint8(1), []byte{0x00, 0x10, 0x10, 0x20, 0x40})
	f.Add(uint8(4), []byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x11, 0x12, 0x13, 0x37, 0x3f, 0x20, 0x21, 0x22, 0x23})
	f.Add(uint8(3), []byte{0x07, 0x17, 0x47, 0x07, 0x17, 0x37, 0x27})
	f.Fuzz(func(t *testing.T, shards uint8, ops []byte) {
		n := int(shards)%4 + 1
		r, err := rt.New("sfq", sched.WithShards(n), sched.WithClock(&sched.ManualClock{}))
		if err != nil {
			t.Fatal(err)
		}
		const flows = 8
		var pushed, popped [flows]int64
		seq := int64(0)
		for _, b := range ops {
			op := int(b>>4) % 5
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
				checkLedger(t, r, flow, pushed[flow], popped[flow])
				if r.RemoveFlow(flow) == nil {
					acct := r.FlowAccount(flow)
					if acct.EnqueuedBytes-acct.DequeuedBytes != r.QueuedBytes(flow) {
						t.Fatalf("flow %d removed: ledger %+v, %v bytes queued", flow, acct, r.QueuedBytes(flow))
					}
					pushed[flow], popped[flow] = acct.Enqueued, acct.Dequeued
				}
			}
			// Placement invariant: a registered flow's live shard is
			// always a real shard.
			if s, err := r.FlowShard(flow); err == nil && (s < 0 || s >= n) {
				t.Fatalf("flow %d on shard %d of %d", flow, s, n)
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
		t.Fatalf("flow %d: ledger %+v, driver %d/%d", flow, acct, pushed, popped)
	}
}
