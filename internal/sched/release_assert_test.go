//go:build schedassert

package sched

import (
	"math"
	"strings"
	"testing"
)

// TestReleasedRecordPoisoned: under schedassert a record given back at the
// end of a busy period reads flow -1, count -1 and NaN chains until it is
// leased again, and a push through the stale *Flow panics.
func TestReleasedRecordPoisoned(t *testing.T) {
	s := MustNewRanked(RankSFQ(TieFIFO), Config{})
	if err := s.AddFlow(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(0, &Packet{Flow: 1, Length: 10}); err != nil {
		t.Fatal(err)
	}
	f := s.q.fs.Get(1)
	s.Dequeue(1)
	s.Dequeue(2) // the busy period ends
	if f.flow != -1 || f.n != -1 || !math.IsNaN(f.LastFinish) || !math.IsNaN(f.Weight) {
		t.Fatalf("released record not poisoned: %+v", *f)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "released flow record") {
			t.Fatalf("push to a stale record: recovered %q", r)
		}
	}()
	s.q.PushFlow(f, 0, 0, &Packet{Flow: 1, Length: 1})
}
