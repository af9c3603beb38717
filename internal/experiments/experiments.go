// Package experiments regenerates every table and figure of the SFQ
// paper's evaluation. Each experiment is a pure function of its
// configuration (sizes are scalable so the benchmark harness can run
// reduced versions) and returns both machine-readable metrics and the
// paper-style rows that cmd/experiments prints.
//
// The per-experiment index in DESIGN.md maps each function here to the
// table or figure it reproduces; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"strings"
)

// Result is the outcome of one experiment.
type Result struct {
	ID    string
	Title string
	Lines []string           // paper-style rendered rows
	Got   map[string]float64 // key metrics, stable keys for tests/benches
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Got: make(map[string]float64)}
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) set(key string, v float64) { r.Got[key] = v }

// String renders the result for the CLI.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
