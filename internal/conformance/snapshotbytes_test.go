package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/liveops"
	"repro/internal/sched"
)

// snapshotBytesGoldenPath holds the AppendState bytes of a scripted state.
// The snapshot format is part of the failover contract: a layout change
// inside the scheduler must not move a byte of it. Regenerate with
// UPDATE_SNAPSHOT_BYTES=1 only when the format itself is meant to change.
//
// "pifo-sfq" is as recorded on the commit BEFORE per-flow state moved into
// one record per flow (ISSUE 16) and has not moved since. When the
// hand-written SFQ and SCFQ were deleted (ISSUE 23) the plain names took
// the rank family's format — the only one left: "sfq" must marshal what
// "pifo-sfq" does, byte for byte, and "scfq" was re-recorded once. What
// the hand-written schedulers wrote for the same script is kept under
// "parent:<their kind>", as the fixtures of TestParentSnapshotsRefused.
//
// "drr" (quantum 1, the script without re-weighting and draining, which
// DRR does not offer) and "parent:sched/fifo" (the same script) are as
// recorded on the commit before DRR's packets moved into the flow records
// and FIFO became a rank function (ISSUE 25): DRR's format must not have
// moved; FIFO's is the rank family's now.
//
// "parent:sched/fairairport" is the same script on the commit before Fair
// Airport's packets moved into the flow records: its entry-slice format
// moved once, on purpose, to kind "sched/fairairport.v2", pinned under
// "fairairport".
//
// "tree:example3" and "tree:composed" are the script on two link-sharing
// trees of kind "core/hsfq", as recorded before every tree came to be
// built from one description: Example 3's (class A over flows 3 and 4,
// flow 2 at the root) and composed-tree's (flows routed into edd, scfq,
// drr and fifo sinks).
//
// "parent:sched/priority(rank/scfq)" is the script (without re-weighting
// and draining, which the composition did not offer) on "priority-scfq",
// recorded on the commit before strict priority became a rank function at
// a tree interior: the hand-written composition's format.
const snapshotBytesGoldenPath = "testdata/snapshot_bytes.json"

// drrQuantumScript is the DRR quantum of the "drr" pin: small enough that
// deficits carry over and flows wait a round.
const drrQuantumScript = 1

// scriptedState drives s into a state that exercises every per-flow table
// the snapshot serializes: fractional lengths (accumulator residue in the
// byte counters), a per-packet rate, a flow that was never enqueued (no
// lastFinish entry), one that drained (a chain but no queue), one removed
// and re-added (fresh chain) and, when reconf is set, one re-weighted while
// backlogged and one draining.
func scriptedState(t *testing.T, s sched.Interface, reconf bool) []byte {
	t.Helper()
	for f := 1; f <= 7; f++ {
		if err := s.AddFlow(f, float64(100*f)); err != nil {
			t.Fatal(err)
		}
	}
	now := 0.0
	enq := func(flow int, length, rate float64) {
		t.Helper()
		now += 0.001
		if err := s.Enqueue(now, &sched.Packet{Flow: flow, Length: length, Rate: rate}); err != nil {
			t.Fatal(err)
		}
	}
	deq := func() {
		t.Helper()
		now += 0.0005
		if _, ok := s.Dequeue(now); !ok {
			t.Fatal("scripted dequeue found the scheduler empty")
		}
	}
	for i := 0; i < 6; i++ {
		enq(1, 0.1+float64(i)*0.2, 0)
		enq(2, 64.3, 0)
		enq(3, 1500, 250)
	}
	enq(4, 10, 0) // flow 4 drains below: chain, no queue
	enq(6, 33.3, 0)
	enq(6, 0.7, 0)
	for i := 0; i < 9; i++ {
		deq()
	}
	// Flow 7: tagged, drained, removed, re-added — a fresh chain.
	enq(7, 5, 0)
	for s.QueuedBytes(7) > 0 {
		deq()
	}
	if err := s.RemoveFlow(7); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(7, 70); err != nil {
		t.Fatal(err)
	}
	if !reconf {
		enq(2, 12.5, 0)
	} else {
		rc := s.(sched.Reconfigurable)
		if err := rc.SetWeight(2, 950); err != nil {
			t.Fatal(err)
		}
		enq(2, 12.5, 0)
		if err := rc.DrainFlow(6); err != nil {
			t.Fatal(err)
		}
	}
	data, err := s.(sched.Snapshotter).AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readSnapshotBytesGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(snapshotBytesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestSnapshotBytesMatchParent(t *testing.T) {
	want := readSnapshotBytesGolden(t)
	names := []string{"scfq", "pifo-sfq", "drr", "fairairport", "tree:example3", "tree:composed"}
	got := make(map[string]string, len(names))
	for _, name := range names[:2] {
		got[name] = string(scriptedState(t, sched.MustNew(name), true))
	}
	got["drr"] = string(scriptedState(t, sched.MustNew("drr", sched.WithQuantum(drrQuantumScript)), false))
	got["fairairport"] = string(scriptedState(t, sched.MustNew("fairairport"), false))
	for name, tree := range map[string]sched.Interface{"tree:example3": example3Tree(t), "tree:composed": composedSinkTree(t)} {
		if kind := tree.(sched.Snapshotter).StateKind(); kind != "core/hsfq" {
			t.Errorf("%s: StateKind %q, want core/hsfq", name, kind)
		}
		got[name] = string(scriptedState(t, tree, true))
	}
	if os.Getenv("UPDATE_SNAPSHOT_BYTES") != "" {
		for _, name := range names {
			want[name] = got[name]
		}
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotBytesGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: snapshot bytes moved\n got %s\nwant %s", name, got[name], want[name])
		}
	}
	if sfq := string(scriptedState(t, sched.MustNew("sfq"), true)); sfq != want["pifo-sfq"] {
		t.Errorf("sfq does not marshal what pifo-sfq does\n got %s\nwant %s", sfq, want["pifo-sfq"])
	}
}

// TestParentSnapshotsRefused: an envelope written before the rank family
// took over the plain names — kind "core/sfq", "sched/scfq" or
// "sched/fifo" — before Fair Airport moved onto the flow records — kind
// "sched/fairairport" — or by the hand-written priority composition — kind
// "sched/priority(rank/scfq)", offered to the composition that replaced it
// — is in a format this tree no longer reads, and is refused at the kind
// check with ErrBadState, before a byte of it reaches the scheduler.
func TestParentSnapshotsRefused(t *testing.T) {
	golden := readSnapshotBytesGolden(t)
	for key, name := range map[string]string{
		"parent:core/sfq": "sfq", "parent:sched/scfq": "scfq", "parent:sched/fifo": "fifo",
		"parent:sched/fairairport": "fairairport", "parent:sched/priority(rank/scfq)": "hier:priority(fifo,scfq)",
	} {
		state, ok := golden[key]
		if !ok {
			t.Fatalf("fixture %q missing from %s", key, snapshotBytesGoldenPath)
		}
		sum := sha256.Sum256([]byte(state))
		env := []byte(fmt.Sprintf(`{"version":%d,"kind":%q,"sha256":%q,"state":%s}`,
			liveops.Version, strings.TrimPrefix(key, "parent:"), hex.EncodeToString(sum[:]), state))
		if _, err := liveops.Peek(env); err != nil {
			t.Fatalf("%s: fixture envelope is not well-formed: %v", key, err)
		}
		s := sched.MustNew(name)
		err := liveops.Restore(env, s.(sched.Snapshotter))
		if !errors.Is(err, sched.ErrBadState) || !strings.Contains(err.Error(), "kind") {
			t.Errorf("%s into %s: %v, want ErrBadState from the kind check", key, name, err)
		}
		if n := len(s.(sched.FlowLister).ListFlows()); n != 0 || s.Len() != 0 {
			t.Errorf("%s into %s: refused restore left %d flows, %d packets", key, name, n, s.Len())
		}
	}
}

// example3Tree is Example 3's link-sharing tree: class A over flows 3 and
// 4, flow 2 at the root. The script adds the other flows at the root.
func example3Tree(t *testing.T) sched.Interface {
	t.Helper()
	return buildTree(t, &hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "sfq", Class: "A", Weight: 1, Children: []*hier.Spec{flowLeaf(3), flowLeaf(4)}},
		flowLeaf(2),
	}})
}

// composedSinkTree is composed-tree's link share: an SFQ root over edd,
// scfq, drr and fifo sinks weighted 4:3:2:1, with flow 1 in edd, 2 in
// scfq, 3 and 4 in drr and 5 in fifo. AddFlow routes the script's flows 6
// and 7 to the drr and fifo sinks.
func composedSinkTree(t *testing.T) sched.Interface {
	t.Helper()
	return buildTree(t, &hier.Spec{Name: "sfq", Children: []*hier.Spec{
		{Name: "edd", Class: "ugs", Weight: 4, Children: []*hier.Spec{flowLeaf(1)}},
		{Name: "scfq", Class: "rtps", Weight: 3, Children: []*hier.Spec{flowLeaf(2)}},
		{Name: "drr", Class: "nrtps", Weight: 2, Children: []*hier.Spec{flowLeaf(3), flowLeaf(4)}},
		{Name: "fifo", Class: "be", Weight: 1, Children: []*hier.Spec{flowLeaf(5)}},
	}})
}

func flowLeaf(f int) *hier.Spec { return &hier.Spec{IsFlow: true, Flow: f, Weight: 1} }

func buildTree(t *testing.T, sp *hier.Spec) sched.Interface {
	t.Helper()
	h, err := hier.Build(sp, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}
