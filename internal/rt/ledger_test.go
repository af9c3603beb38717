package rt

import (
	"testing"

	_ "repro/internal/core"
	"repro/internal/sched"
)

// TestRemoveFlowDropsLedger pins the ledger's lifetime: a runtime that
// churns distinct flow ids keeps no FlowAccount for a removed flow, except
// on a shard still draining it after a migration, whose dequeues must
// still be counted.
func TestRemoveFlowDropsLedger(t *testing.T) {
	r, err := New("sfq", sched.WithShards(4), sched.WithClock(&sched.ManualClock{}))
	if err != nil {
		t.Fatal(err)
	}
	const live = 3 // flows registered at once
	for f := 0; f < 10000; f++ {
		if err := r.AddFlow(f, 1); err != nil {
			t.Fatal(err)
		}
		if err := r.Enqueue(&sched.Packet{Flow: f, Length: 1}); err != nil {
			t.Fatal(err)
		}
		if f%7 == 0 { // drain-migrate: the old shard still holds the packet
			if err := r.MigrateFlow(f, (r.ShardOf(f)+1)%4); err != nil {
				t.Fatal(err)
			}
		}
		if old := f - live; old >= 0 {
			for r.QueuedBytes(old) > 0 { // serve old's packet wherever it is
				if _, ok := r.Dequeue(); !ok {
					t.Fatal("queued bytes but nothing to dequeue")
				}
			}
			if err := r.RemoveFlow(old); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s, sh := range r.shards {
		if len(sh.acct) > live {
			t.Fatalf("shard %d keeps %d ledgers with %d flows registered", s, len(sh.acct), live)
		}
	}

	// A flow removed while its old shard still drains it keeps that
	// shard's ledger, so the last dequeue is still counted.
	const f = 1 << 20
	if err := r.AddFlow(f, 1); err != nil {
		t.Fatal(err)
	}
	src := r.ShardOf(f)
	if err := r.Enqueue(&sched.Packet{Flow: f, Length: 5}); err != nil {
		t.Fatal(err)
	}
	if err := r.MigrateFlow(f, (src+1)%4); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveFlow(f); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.DequeueShard(src); !ok {
		t.Fatal("draining shard lost the packet")
	}
	if a := r.FlowAccount(f); a.Enqueued != 1 || a.Dequeued != 1 || a.EnqueuedBytes != a.DequeuedBytes {
		t.Fatalf("ledger of a flow removed mid-drain %+v", a)
	}
}
