// Package tracelog exports simulation series as CSV for plotting — the
// raw data behind the paper's figures. It understands the two figure
// shapes the experiments produce: event series (Figure 1(b): packet
// sequence numbers vs arrival time per source) and sampled series
// (Figure 3(b): throughput per connection over time), plus the event
// window of an obs trace ring.
package tracelog

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// WriteEventSeries writes one row per event: series label, index within
// the series (the "sequence number" axis of Fig 1b), and event time.
// Series are emitted in sorted label order for determinism.
func WriteEventSeries(w io.Writer, series map[string][]float64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "series,index,time"); err != nil {
		return err
	}
	labels := make([]string, 0, len(series))
	for l := range series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		for i, t := range series[l] {
			if _, err := fmt.Fprintf(bw, "%s,%d,%.9f\n", l, i+1, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Sample is one multi-column point of a sampled series.
type Sample struct {
	Time   float64
	Values []float64
}

// WriteSampledSeries writes a header of column names followed by one row
// per sample (the Fig 3b shape).
func WriteSampledSeries(w io.Writer, columns []string, samples []Sample) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, "time"); err != nil {
		return err
	}
	for _, c := range columns {
		if _, err := fmt.Fprintf(bw, ",%s", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}
	for _, s := range samples {
		if len(s.Values) != len(columns) {
			return fmt.Errorf("tracelog: sample at %v has %d values for %d columns",
				s.Time, len(s.Values), len(columns))
		}
		if _, err := fmt.Fprintf(bw, "%.9f", s.Time); err != nil {
			return err
		}
		for _, v := range s.Values {
			if _, err := fmt.Fprintf(bw, ",%.9f", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTraceEvents dumps an obs trace ring as CSV, oldest first — the
// file behind sfqsim --trace. The ring keeps only the newest events; when
// overwritten > 0 a comment row records how many earlier events the
// window displaced, so a truncated trace is never mistaken for a full one.
func WriteTraceEvents(w io.Writer, r *obs.TraceRing) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time,kind,flow,seq,bytes,cause"); err != nil {
		return err
	}
	if n := r.Overwritten(); n > 0 {
		if _, err := fmt.Fprintf(bw, "# %d earlier events displaced by the trace ring\n", n); err != nil {
			return err
		}
	}
	var werr error
	r.Do(func(e obs.Event) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%.9f,%s,%d,%d,%.3f,%s\n",
			e.Time, e.Kind, e.Flow, e.Seq, e.Bytes, e.Cause)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
