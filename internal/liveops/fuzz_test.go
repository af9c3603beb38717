package liveops_test

import (
	"testing"

	"repro/internal/liveops"
	"repro/internal/sched"

	_ "repro/internal/hier" // register hier:<spec>
)

// fuzzTargets are the schedulers FuzzSnapshotRestore restores into: the rank
// family's format (scfq), DRR's and Fair Airport's, whose restores refill
// the flow records' FIFOs from the snapshot, the rank family's with a fluid
// GPS reference (wfq), and two scheduler trees whose nodes embed envelopes
// of their own: an SFQ root over DRR and EDD sinks, and strict priority of
// a FIFO sink over an SCFQ sink. The first input byte picks one.
var fuzzTargets = []func() sched.Interface{
	func() sched.Interface { return sched.NewSCFQ() },
	func() sched.Interface { return sched.NewDRR(1) },
	func() sched.Interface { return sched.NewFairAirport() },
	func() sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(1e5)) },
	func() sched.Interface { return sched.MustNew("hier:sfq(drr,edd)") },
	func() sched.Interface { return sched.MustNew("hier:priority(fifo,scfq)") },
}

// FuzzSnapshotRestore throws arbitrary bytes at Restore. Valid envelopes
// (the seeds, plus whatever mutations keep the digest intact) must load
// into a scheduler that stays fully drivable and re-snapshotable; invalid
// bytes must be rejected cleanly — never a panic, never a scheduler that
// accepts a half-loaded schedule.
func FuzzSnapshotRestore(f *testing.F) {
	for target, mk := range fuzzTargets {
		seed := mk()
		if err := seed.AddFlow(1, 100); err != nil {
			f.Fatal(err)
		}
		if err := seed.AddFlow(2, 300); err != nil {
			f.Fatal(err)
		}
		now := 0.0
		for i := 0; i < 40; i++ {
			now += 0.002
			if i%5 == 4 {
				seed.Dequeue(now)
				continue
			}
			p := &sched.Packet{Flow: i%2 + 1, Seq: int64(i), Length: float64(100 + i*13), Arrival: now}
			if err := seed.Enqueue(now, p); err != nil {
				f.Fatal(err)
			}
			if i == 10 || i == 25 || i == 38 {
				data, err := liveops.Snapshot(seed.(sched.Snapshotter))
				if err != nil {
					f.Fatal(err)
				}
				f.Add(append([]byte{byte(target)}, data...))
			}
		}
		kind := seed.(sched.Snapshotter).StateKind()
		f.Add(append([]byte{byte(target)}, `{"version":1,"kind":"`+kind+`","sha256":"","state":{}}`...))
		f.Add(append([]byte{byte(target)}, `not json`...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mk := fuzzTargets[int(data[0])%len(fuzzTargets)]
		s := mk()
		if liveops.Restore(data[1:], s.(sched.Snapshotter)) != nil {
			return
		}
		// A restore that succeeded must leave a coherent scheduler: drive
		// it and snapshot it again.
		if err := s.AddFlow(99, 50); err != nil {
			t.Fatalf("AddFlow on restored scheduler: %v", err)
		}
		tick := 1e9
		for i := 0; i < 8; i++ {
			tick += 0.001
			p := &sched.Packet{Flow: 99, Seq: int64(i), Length: 200, Arrival: tick}
			if err := s.Enqueue(tick, p); err != nil {
				t.Fatalf("Enqueue on restored scheduler: %v", err)
			}
		}
		for {
			if _, ok := s.Dequeue(tick); !ok {
				break
			}
		}
		again, err := liveops.Snapshot(s.(sched.Snapshotter))
		if err != nil {
			t.Fatalf("re-Snapshot after restore+drive: %v", err)
		}
		if err := liveops.Restore(again, mk().(sched.Snapshotter)); err != nil {
			t.Fatalf("second-generation restore: %v", err)
		}
	})
}
