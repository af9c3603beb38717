package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMain moves to the repository root, where the driver runs the
// benchmark from (the golden file and bench/out are relative to it).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec: BENCHMARK.json is the driver's copy of
// spec.go; the two must name the same workloads and metrics.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, m, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, m, s)
		}
	}
}

// driverMetrics parses a driver line and returns its metrics, failing on a
// name that appears twice (encoding/json would silently keep the last).
func driverMetrics(t *testing.T, line []byte) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	var top struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   json.RawMessage
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&top); err != nil {
		t.Fatalf("driver line: %v\n%s", err, line)
	}
	if !top.Correct || top.Attempted < 1 || top.Failed != 0 {
		t.Fatalf("driver line reports correct=%v attempted=%d failed=%d", top.Correct, top.Attempted, top.Failed)
	}
	out := make(map[string]struct {
		Value float64
		Unit  string
	})
	md := json.NewDecoder(bytes.NewReader(top.Metrics))
	if _, err := md.Token(); err != nil { // {
		t.Fatal(err)
	}
	for md.More() {
		tok, err := md.Token()
		if err != nil {
			t.Fatal(err)
		}
		name := tok.(string)
		if _, dup := out[name]; dup {
			t.Errorf("metric %s is emitted twice", name)
		}
		var v struct {
			Value float64
			Unit  string
		}
		if err := md.Decode(&v); err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		out[name] = v
	}
	return out
}

// TestSmoke runs every workload at -short sizes and checks that each run is
// correct and emits exactly the metrics BENCHMARK.json lists for it: once,
// finite, with the listed unit. A traced run passes over all six workloads
// whichever it is asked for, so two are asked for: the one whose trial
// consumes its instance and the open-loop one (only the first under
// `go test -short`, CI's ten-times-slower race-detector pass).
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && def != &fabricWide && (def != &rtOpen || testing.Short()) {
				continue
			}
			res := runWorkload(def, options{seed: 1, seconds: 0.05, short: true, traced: traced, outDir: out})
			if !res.Correct {
				t.Errorf("%s traced=%v: not correct: failed %d of %d, reasons %v, refused %v",
					def.name, traced, res.Failed, res.Attempted, res.Reasons, res.Invalid)
				continue
			}
			line, err := driverLine(res)
			if err != nil {
				t.Errorf("%s traced=%v: %v", def.name, traced, err)
				continue
			}
			got := driverMetrics(t, line)
			want := make(map[string]string)
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+def.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", def.name, err)
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is not emitted", def.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", def.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s is %v", def.name, traced, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", def.name, name, m.Value)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is emitted but not in BENCHMARK.json", def.name, traced, name)
				}
			}
		}
	}
}

// TestDeterminism: the same seed gives the same inputs and the same
// exact-repeat figures; another seed gives other inputs. The product only
// ever sees the generated inputs.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("single-goroutine reruns; nothing for the race detector to see")
	}
	exactMetrics := map[string][]string{
		"fabric-wide":      {"fair_ratio", "delay_ratio"},
		"sched-backlogged": {"fair_ratio"},
		"rt-saturate":      {"share_min"},
	}
	for name, metrics := range exactMetrics {
		def := findWorkload(name)
		run := func(seed int64) *result {
			return runWorkload(def, options{seed: seed, seconds: 0.05, short: true, outDir: t.TempDir()})
		}
		a, b := run(7), run(7)
		if a.InputHash != b.InputHash {
			t.Errorf("%s: same seed, input hashes %s and %s", name, a.InputHash, b.InputHash)
		}
		other := newEnv(8, true, nil)
		other.hashing = true
		def.setup(other, 0).close()
		if h := fmt.Sprintf("%016x", other.inputs.Sum64()); a.InputHash == h {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs (%s)", name, h)
		}
		for _, m := range metrics {
			if _, ok := a.Metrics[m]; !ok {
				t.Errorf("%s: %s is not reported", name, m)
			} else if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: same seed, %s is %v and %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		for k, v := range a.Exact { // digest, eventq.steps, topo.windows, share_min
			if b.Exact[k] != v {
				t.Errorf("%s: same seed, %s is %s and %s", name, k, v, b.Exact[k])
			}
		}
		if name == "fabric-wide" {
			for _, k := range []string{"fabric.digest", "eventq.steps", "topo.windows"} {
				if a.Exact[k] == "" {
					t.Errorf("fabric-wide: %s is not reported", k)
				}
			}
		}
	}
}

// failingInstance fails one operation in ten.
type failingInstance struct{}

func (failingInstance) trial() (ops, failed int64) { return 10, 1 }
func (failingInstance) close()                     {}

// TestRefusesIncorrectRun: a run with a failed operation is not correct and
// a run missing a metric has no driver line.
func TestRefusesIncorrectRun(t *testing.T) {
	def := &workloadDef{name: "failing", setup: func(*env, int) instance { return failingInstance{} }, minInstances: 1}
	res := runWorkload(def, options{seed: 1, seconds: 0.01, short: true, outDir: t.TempDir()})
	if res.Correct || res.Failed == 0 {
		t.Errorf("a run with failed operations is reported correct (failed %d of %d)", res.Failed, res.Attempted)
	}
	if want := float64(res.Failed) / float64(res.Attempted); res.Metrics["fail_ratio"].Value != want {
		t.Errorf("fail_ratio %v, want %v", res.Metrics["fail_ratio"].Value, want)
	}
	delete(res.Metrics, "ops_per_s")
	if _, err := driverLine(res); err == nil {
		t.Error("driverLine accepted a result without ops_per_s")
	}
	res.Metrics["ops_per_s"] = metric{Value: math.NaN(), Unit: "1/s"}
	if _, err := driverLine(res); err == nil {
		t.Error("driverLine accepted a NaN")
	}
}

// TestCompareVerdicts drives -compare over hand-made result sets.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops []float64, setup float64) string {
		var buf bytes.Buffer
		for _, v := range ops {
			r := result{Workload: "sched-backlogged", Correct: true, Metrics: map[string]metric{
				"ops_per_s": {Value: v, Unit: "1/s"},
				"setup_s":   {Value: setup, Unit: "s"},
			}}
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(data, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{100, 101, 99, 100, 102}, 1.0)
	for _, tc := range []struct {
		name      string
		ops       []float64
		setup     float64
		want      string // verdict on ops_per_s
		wantWorse bool
	}{
		{"same", []float64{98, 100, 101, 99, 103}, 1.0, "same", false},
		{"worse", []float64{60, 61, 59, 60, 62}, 1.0, "worse", true},
		{"better", []float64{150, 151, 149, 150, 152}, 1.0, "better", false},
		{"unresolved", []float64{40, 100, 160, 70, 130}, 1.0, "unresolved", false},
		{"setup-worse", []float64{100, 101, 99, 100, 102}, 1.5, "same", true},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(tc.name+".json", tc.ops, tc.setup))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.wantWorse {
			t.Errorf("%s: any-worse = %v, want %v\n%s", tc.name, worse, tc.wantWorse, out.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == "ops_per_s" {
				found = true
				if f[len(f)-1] != tc.want {
					t.Errorf("%s: ops_per_s verdict %q, want %q", tc.name, f[len(f)-1], tc.want)
				}
			}
		}
		if !found {
			t.Errorf("%s: no ops_per_s row in\n%s", tc.name, out.String())
		}
	}
}
