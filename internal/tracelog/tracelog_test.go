package tracelog_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tracelog"
)

func TestWriteEventSeries(t *testing.T) {
	var buf bytes.Buffer
	err := tracelog.WriteEventSeries(&buf, map[string][]float64{
		"src3": {0.5, 0.6},
		"src2": {0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"series,index,time",
		"src2,1,0.100000000",
		"src3,1,0.500000000",
		"src3,2,0.600000000",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestWriteSampledSeries(t *testing.T) {
	var buf bytes.Buffer
	err := tracelog.WriteSampledSeries(&buf, []string{"w1", "w2"}, []tracelog.Sample{
		{Time: 0.1, Values: []float64{1, 2}},
		{Time: 0.2, Values: []float64{3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time,w1,w2" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "0.100000000,1") {
		t.Errorf("rows = %v", lines[1:])
	}
}

func TestWriteSampledSeriesShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	err := tracelog.WriteSampledSeries(&buf, []string{"a"}, []tracelog.Sample{
		{Time: 0, Values: []float64{1, 2}},
	})
	if err == nil {
		t.Error("column mismatch accepted")
	}
}

// failWriter errors after n bytes, exercising the error paths.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, fmt.Errorf("disk full")
	}
	w.left -= len(p)
	return len(p), nil
}

func TestWriteErrorsPropagate(t *testing.T) {
	series := map[string][]float64{"a": {1, 2, 3}}
	if err := tracelog.WriteEventSeries(&failWriter{left: 4}, series); err == nil {
		t.Error("event series write error swallowed")
	}
	samples := []tracelog.Sample{{Time: 1, Values: []float64{2}}}
	if err := tracelog.WriteSampledSeries(&failWriter{left: 4}, []string{"c"}, samples); err == nil {
		t.Error("sampled series write error swallowed")
	}
	ring := obs.NewTraceRing(1)
	ring.Push(obs.Event{Time: 1, Kind: obs.EvDepart, Flow: 1, Bytes: 2})
	if err := tracelog.WriteTraceEvents(&failWriter{left: 4}, ring); err == nil {
		t.Error("trace event write error swallowed")
	}
}
