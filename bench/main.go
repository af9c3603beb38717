// Command bench is the repository's one benchmark: six named workloads,
// end-to-end metrics measured with tracing off, and a separate traced run
// that attributes time to layers (spans around the product's public seams
// plus a layer ladder). See README.md in this directory and BENCHMARK.json
// at the repository root.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds s] [-trace 1] [-short]
//	go run ./bench -compare a.json b.json
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; everything before it
// is the human-readable report. The process exits non-zero, without that
// line, when a validity guard or a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []*workloadDef{&paperSuite, &fabricWide, &schedBacklogged, &schedSporadic, &rtSaturate, &rtOpen}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value. Q1, Q3 and N are set when the value is the
// median of N trials inside the run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is everything one run measured. The driver's line is cut from it;
// the whole of it goes to the result file that -compare reads.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Short      bool              `json:"short,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Reasons    []string          `json:"reasons,omitempty"`
	Invalid    []string          `json:"invalid,omitempty"` // validity guards that refused the run
	Metrics    map[string]metric `json:"metrics"`
	InputHash  string            `json:"input_hash"`
	Exact      map[string]string `json:"exact,omitempty"`
	Ladder     []rung            `json:"ladder,omitempty"`
	BlocksNs   []float64         `json:"blocks_ns_per_op,omitempty"` // every measured block, in order, as measured
	BlocksHost []float64         `json:"blocks_host_index,omitempty"`
	WallS      float64           `json:"wall_s"`
	TraceFile  string            `json:"trace_file,omitempty"`
}

func (r *result) set(spec []metricSpec, name string, v float64) {
	for _, s := range spec {
		if s.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}

func (r *result) setSummary(spec []metricSpec, name string, s summary) {
	r.set(spec, name, s.Median)
	m := r.Metrics[name]
	m.Q1, m.Q3, m.N = s.Q1, s.Q3, s.N
	r.Metrics[name] = m
}

// options are the settings of one run.
type options struct {
	seed    int64
	seconds float64
	short   bool
	traced  bool
	outDir  string // where trace and result files go
}

// pinProcs pins GOMAXPROCS to two — every workload is sized for exactly two
// cores — and reports whether the machine can honour it.
func pinProcs() bool {
	runtime.GOMAXPROCS(2)
	return runtime.NumCPU() >= 2
}

// runWorkload runs one workload, untraced or traced, and returns what it
// measured. It reports but does not act on failed checks; see report.
func runWorkload(def *workloadDef, opt options) *result {
	twoCores := pinProcs()
	res := &result{Workload: def.name, Seed: opt.seed, Traced: opt.traced, Short: opt.short,
		Metrics: make(map[string]metric)}
	if !twoCores && !opt.short {
		res.Invalid = append(res.Invalid, fmt.Sprintf("GOMAXPROCS cannot be 2: the process may use %d CPU", runtime.NumCPU()))
	}
	start := time.Now()
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		runTraced(def, opt, budget, res)
	} else {
		runUntraced(def, opt, budget, res)
	}
	res.WallS = time.Since(start).Seconds()
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0
	return res
}

// describe records the inputs and exact-repeat figures of a pass.
func (r *result) describe(e *env) {
	r.InputHash = fmt.Sprintf("%016x", e.inputs.Sum64())
	r.Exact = e.q.exact
	if !math.IsNaN(e.q.shareMin) {
		r.Exact["share_min"] = fmt.Sprintf("%.9g", e.q.shareMin)
	}
}

// qualityMetrics stores the workload-specific end-to-end figures a pass
// produced under prefix (empty for an untraced run, "e2e." for a traced one).
func (r *result) qualityMetrics(spec []metricSpec, prefix string, e *env, m *measured) {
	ops, _, mallocs := m.totals()
	if ops > 0 {
		r.set(spec, prefix+"allocs_per_op", float64(mallocs)/float64(ops))
	}
	if r.Attempted > 0 {
		r.set(spec, prefix+"fail_ratio", float64(r.Failed)/float64(r.Attempted))
	}
	q := &e.q
	if !math.IsNaN(q.fairRatio) {
		r.set(spec, prefix+"fair_ratio", q.fairRatio)
	}
	if !math.IsNaN(q.delayRatio) {
		r.set(spec, prefix+"delay_ratio", q.delayRatio)
	}
	if !math.IsNaN(q.shareMin) {
		r.set(spec, prefix+"share_min", q.shareMin)
	}
	r.waitMetrics(spec, prefix, q, !r.Short)
}

// waitMetrics stores the light requests' wait percentiles and, when told to,
// holds the 99th to the latency limit (one 50 ms or 0.25 s window, where a
// single stall of the host decides the percentile, is not held to it).
func (r *result) waitMetrics(spec []metricSpec, prefix string, q *quality, enforce bool) {
	if q.waits.n == 0 {
		return
	}
	p99 := q.waits.quantile(0.99) / 1e3
	r.set(spec, prefix+"wait_p50_us", q.waits.quantile(0.5)/1e3)
	r.Metrics[prefix+"wait_p99_us"] = metric{Value: p99, Unit: "us", N: int(q.waits.n)}
	if !enforce {
		return
	}
	r.Attempted++
	if p99 > lightWaitP99Limit*1e6 {
		r.Failed++
		r.Reasons = append(r.Reasons, fmt.Sprintf("light wait p99 %.0f us is over the %.0f us limit", p99, lightWaitP99Limit*1e6))
	}
}

func runUntraced(def *workloadDef, opt options, budget time.Duration, res *result) {
	e := newEnv(opt.seed, opt.short, nil)
	e.dropLate = !opt.short
	minInst := def.minInstances
	if opt.short {
		minInst = 1
		if def.oneShot {
			minInst = 2 // the first is the warm-up
		}
	}
	m := runInstances(def, e, budget, minInst, false)
	res.count(e, &m)
	res.describe(e)

	perOp, host := m.nsPerOp(), m.hostIndexes()
	res.BlocksNs, res.BlocksHost = perOp, host
	if len(perOp) < minTrials && !opt.short {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d measured blocks of trials, fewer than %d", len(perOp), minTrials))
	}
	// A closed-loop workload runs as fast as the host lets it, so its times
	// are divided by the host-speed index measured around them; an
	// open-loop workload's rate is its schedule's.
	opsRaw, opsPerS := make([]float64, len(perOp)), make([]float64, len(perOp))
	for i, ns := range perOp {
		opsRaw[i] = 1e9 / ns
		opsPerS[i] = opsRaw[i]
		if !def.openLoop {
			opsPerS[i] *= host[i]
		}
	}
	setup := append([]float64(nil), m.setupS...)
	if !def.openLoop {
		for i := range setup {
			setup[i] /= m.setupHost[i]
		}
	}
	res.setSummary(endToEnd, "setup_s", summarize(setup))
	res.setSummary(endToEnd, "ops_per_s", summarize(opsPerS))
	res.setSummary(endToEnd, "mem_mb", summarize(m.liveMB))
	res.setSummary(rawE2E, "setup_s_raw", summarize(m.setupS))
	res.setSummary(rawE2E, "ops_per_s_raw", summarize(opsRaw))
	res.setSummary(rawE2E, "host_index", summarize(append(host, m.setupHost...)))
	res.qualityMetrics(qualityE2E, "", e, &m)
	if def.openLoop {
		res.set(rawE2E, "late_p99_us", e.q.late.quantile(0.99)/1e3)
		res.set(rawE2E, "discarded_windows", e.q.layer["bench.discarded_windows"])
	}
}

// tracedPass is one workload run traced: its env, what was measured, the
// span summary, and the untraced reference pass where one was made.
type tracedPass struct {
	e      *env
	m, ref measured
	sum    *traceSummary
}

// tracePass runs def once untraced (when withRef) and once traced. brief
// passes measure one block per pass.
func tracePass(def *workloadDef, opt options, budget time.Duration, brief, withRef bool, res *result) tracedPass {
	var p tracedPass
	if withRef {
		refInst := 1
		if def.oneShot {
			refInst = 4 // an instance is one trial: the serial one and a few more
			if brief {
				refInst = 2
			}
		}
		ref := newEnv(opt.seed, opt.short, nil)
		ref.brief = brief
		p.ref = runInstances(def, ref, budget, refInst, true)
		res.count(ref, &p.ref) // the reference pass ran the same checks
	}
	p.e = newEnv(opt.seed, opt.short, newTracer())
	p.e.brief = brief
	p.m = runInstances(def, p.e, budget, 1, true)
	p.sum = p.e.tr.merge()
	res.count(p.e, &p.m)
	return p
}

// count adds what a pass attempted, failed and complained about.
func (r *result) count(e *env, m *measured) {
	ops, failed, _ := m.totals()
	r.Attempted += ops + e.q.extraAttempted
	r.Failed += failed + e.q.extraFailed
	r.Reasons = append(r.Reasons, e.q.reasons...)
	if failed > 0 {
		r.Reasons = append(r.Reasons, fmt.Sprintf("%d of %d timed operations failed", failed, ops))
	}
}

// runTraced is the separate, shorter traced run. The workload asked for is
// run untraced and traced (the ratio is the tracing overhead) for a quarter
// of the budget each; every other workload is run traced briefly, so that
// the per-layer figures that only its spans can give are measured in every
// traced run; then come the workload-independent ladder and probes.
func runTraced(def *workloadDef, opt options, budget time.Duration, res *result) {
	out := make(map[string]float64)
	main := tracePass(def, opt, budget/4, false, true, res)
	passes := map[*workloadDef]tracedPass{def: main}
	for _, w := range workloads {
		if w != def {
			passes[w] = tracePass(w, opt, 0, true, w.oneShot, res)
		}
	}
	for w, p := range passes {
		for k, v := range p.e.q.layer {
			out[k] = v
		}
		if w.layers != nil {
			w.layers(p.e, &p.ref, &p.m, p.sum, out)
		}
	}
	// The discipline spans are those of the workload asked for, or, when it
	// builds its own disciplines, of sched-backlogged.
	spans := main.sum
	if spans.count(spSchedEnq) == 0 {
		spans = passes[&schedBacklogged].sum
	}
	out["sched.enq_ns"], out["sched.deq_ns"] = spans.p50(spSchedEnq), spans.p50(spSchedDeq)

	probeTk := main.e.tr.track("")
	rungs, err := runProbes(main.e, probeTk, out)
	if err != nil {
		res.Attempted++
		res.Failed++
		res.Reasons = append(res.Reasons, err.Error())
	}
	res.Ladder = rungs
	sum := main.e.tr.merge() // again, now with the probes' spans

	traced, untraced := median(main.m.nsPerOp()), median(main.ref.nsPerOp())
	if ns := main.ref.nsPerOp(); def.oneShot && len(ns) > 0 {
		// Only the first reference instance ran the way the traced one did.
		untraced = ns[0]
	}
	if untraced > 0 {
		out["bench.trace_overhead"] = traced / untraced
	}
	out["bench.gc_cpu_frac"] = main.m.gcFrac
	out["bench.host_index"] = median(append(main.m.hostIndexes(), main.ref.hostIndexes()...))
	open := passes[&rtOpen].e
	out["bench.late_p99_us"] = open.q.late.quantile(0.99) / 1e3
	for _, s := range perLayer {
		res.set(perLayer, s.Name, out[s.Name])
	}
	res.describe(main.e)
	res.qualityMetrics(perLayer, "e2e.", main.e, &main.m)
	if def != &rtOpen {
		res.waitMetrics(perLayer, "e2e.", &open.q, false) // the light tenants' wait is rt-open's to report
	}
	path, err := writeTrace(opt.outDir, def.name, opt.seed, sum)
	if err != nil {
		res.Invalid = append(res.Invalid, "writing the trace file: "+err.Error())
	}
	res.TraceFile = path
}

// report prints the human-readable account of a run.
func report(w io.Writer, def *workloadDef, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.1f s) — op: %s\n", res.Workload, mode, res.Seed, res.WallS, def.op)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if m.N > 0 && m.Q3 != 0 {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (q1 %.6g, q3 %.6g, n %d)\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else if m.N > 0 {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (n %d)\n", n, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  fail_ratio = %d failed / %d attempted\n", res.Failed, res.Attempted)
	fmt.Fprintf(w, "  input hash %s", res.InputHash)
	keys := make([]string, 0, len(res.Exact))
	for k := range res.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%s", k, res.Exact[k])
	}
	fmt.Fprintln(w)
	if len(res.Ladder) > 0 {
		fmt.Fprintf(w, "  ladder (%d flows, SFQ, %.0f B):\n", ladderFlows, ladderPkt)
		for _, r := range res.Ladder {
			fmt.Fprintf(w, "    %-28s %9.1f ns/op %7.3f allocs/op", r.Name, r.NsOp, r.AllocsOp)
			if r.Below != "" {
				fmt.Fprintf(w, "  %+9.1f ns vs %s", r.DeltaNs, r.Below)
			}
			fmt.Fprintln(w)
		}
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  trace written to %s\n", res.TraceFile)
	}
	for _, r := range res.Reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", r)
	}
	for _, r := range res.Invalid {
		fmt.Fprintf(w, "  REFUSED: %s\n", r)
	}
}

// driverLine is the contract's last line: exactly the metrics BENCHMARK.json
// lists for this kind of run, value and unit only.
func driverLine(res *result) ([]byte, error) {
	spec := endToEnd
	if res.Traced {
		spec = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(spec))
	for _, s := range spec {
		m, ok := res.Metrics[s.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		ms[s.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
}

// repoRoot finds the directory holding go.mod, from the working directory
// upwards: the benchmark is run from the repository root by the driver and
// from its own directory by `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// fatal reports a usage or environment error (exit status 2; a run that
// measured something wrong exits 1).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: end-to-end metrics, tracing off")
	short := flag.Bool("short", false, "tiny sizes, for smoke tests; numbers mean nothing")
	out := flag.String("out", "", "append each run's full result to this file (one JSON object per line), for -compare")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	// Everything below runs from the repository root (the golden file and
	// bench/out are relative to it); -out stays where the caller meant it.
	if *out != "" {
		abs, err := filepath.Abs(*out)
		if err != nil {
			fatal(err)
		}
		*out = abs
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		fatal(err)
	}
	opt := options{seed: *seed, seconds: *seconds, short: *short, traced: *trace != 0,
		outDir: filepath.Join("bench", "out")}

	var defs []*workloadDef
	if *workload == "all" {
		defs = workloads
	} else if def := findWorkload(*workload); def != nil {
		defs = []*workloadDef{def}
	} else {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fatal(fmt.Errorf("unknown workload %q; known: %s, all", *workload, strings.Join(names, ", ")))
	}

	bad := false
	for _, def := range defs {
		res := runWorkload(def, opt)
		report(os.Stdout, def, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		if !res.Correct {
			bad = true
			continue
		}
		line, err := driverLine(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			bad = true
			continue
		}
		fmt.Printf("%s\n", line)
	}
	if bad {
		os.Exit(1)
	}
}

func appendResult(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
