package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// -compare a.json b.json applies the bounds of spec.go to two result sets
// (files written with -out: one run per line, any number of runs per
// workload) and prints one verdict per end-to-end metric and workload:
//
//	better      b's median beats a's by more than the bound
//	same        the medians are within the bound of each other
//	worse       b's median is worse than a's by more than the bound
//	unresolved  the quartile range of either side is wider than the bound,
//	            so the medians cannot say (unless every run of one side reads
//	            better than every run of the other, which decides it)
//
// With one run per side the quartiles are those of the blocks inside the
// run; with several they are taken over the runs.

// side is one metric of one workload in one result set: one value per run.
type side []metric

func (s side) values() []float64 {
	out := make([]float64, len(s))
	for i, m := range s {
		out[i] = m.Value
	}
	return out
}

func (s side) summary() summary {
	if len(s) == 1 {
		m := s[0]
		if m.N == 0 {
			return summary{Median: m.Value, Q1: m.Value, Q3: m.Value, N: 1}
		}
		return summary{Median: m.Value, Q1: m.Q1, Q3: m.Q3, N: m.N}
	}
	return summarize(s.values())
}

func readResults(path string) (map[string]map[string]side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string]side)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Traced {
			continue // end-to-end numbers never come from a traced run
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string]side)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m)
		}
	}
	return out, sc.Err()
}

// verdict compares b against a for one metric.
func verdict(spec metricSpec, a, b side) string {
	sa, sb := a.summary(), b.summary()
	// delta > 0 means b is worse, in the metric's own unit.
	delta := sb.Median - sa.Median
	if spec.Better == "higher" {
		delta = -delta
	}
	allowed := math.Max(spec.Bound*math.Abs(sa.Median), spec.Floor)
	spread := math.Max(sa.Q3-sa.Q1, sb.Q3-sb.Q1)
	if spread > allowed && spread > 0 {
		// Too noisy for the medians to say, unless the two sets of runs do
		// not overlap at all.
		switch {
		case separated(spec, a.values(), b.values()):
			return "better"
		case separated(spec, b.values(), a.values()):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case delta > allowed:
		return "worse"
	case -delta > allowed:
		return "better"
	}
	return "same"
}

// separated reports whether every run of b reads better than every run of a.
func separated(spec metricSpec, a, b []float64) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if spec.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	specs := append(append([]metricSpec(nil), endToEnd...), qualityE2E...)
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, def := range workloads {
		wa, wb := a[def.name], b[def.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, spec := range specs {
			ma, mb := wa[spec.Name], wb[spec.Name]
			if ma == nil || mb == nil {
				continue
			}
			v := verdict(spec, ma, mb)
			anyWorse = anyWorse || v == "worse"
			am, bm := ma.summary().Median, mb.summary().Median
			change := "—"
			if am != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(bm-am)/math.Abs(am))
			}
			fmt.Fprintf(w, "%-18s %-14s %14.6g %14.6g %8s %6.1f%%  %s\n", def.name, spec.Name, am, bm, change, 100*spec.Bound, v)
		}
	}
	return anyWorse, nil
}
