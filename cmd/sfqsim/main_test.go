package main

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/topo"
)

// TestMain lets the CLI-level tests re-exec this test binary as sfqsim
// itself: with SFQSIM_RUN_MAIN set, the process runs main() on its
// arguments instead of the test harness.
func TestMain(m *testing.M) {
	if os.Getenv("SFQSIM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI invokes sfqsim with args and returns stdout, stderr, exit code.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SFQSIM_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestListSchedsCLI pins -list-scheds: the full sorted registry, one name
// per line, exit 0.
func TestListSchedsCLI(t *testing.T) {
	stdout, _, code := runCLI(t, "-list-scheds")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	got := strings.Fields(stdout)
	if !sort.StringsAreSorted(got) {
		t.Errorf("names not sorted: %v", got)
	}
	if want := sched.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("-list-scheds = %v, want %v", got, want)
	}
}

// TestPinnedOutput pins sfqsim's stdout for two runs to testdata: the
// default run, and a 60 s on-off run whose H(f,m) covers every record of
// the run (H(1,2) = 750.0).
func TestPinnedOutput(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		args       []string
	}{
		{"default", "default.txt", nil},
		{"onoff-60s", "onoff60.txt", []string{"-dur", "60", "-server", "onoff", "-weights", "1,2,3,4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("output moved\n got:\n%s\nwant:\n%s", stdout, want)
			}
		})
	}
}

// TestUnknownSchedCLI pins the unknown -sched rejection: exit 2, and the
// stderr message names the typo and carries the sorted registry so the
// user can pick without a second invocation.
func TestUnknownSchedCLI(t *testing.T) {
	_, stderr, code := runCLI(t, "-sched", "sqf", "-dur", "0.01")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, `unknown scheduler "sqf"`) {
		t.Errorf("stderr does not name the bad scheduler: %s", stderr)
	}
	names := sched.Names()
	for _, probe := range []string{names[0], names[len(names)-1], "hsfq"} {
		if !strings.Contains(stderr, probe) {
			t.Errorf("stderr is missing registered name %q: %s", probe, stderr)
		}
	}
	// Open-ended composed names are accepted even though they cannot be
	// enumerated: "hier:<spec>" resolves through the registry fallback.
	if _, stderr, code := runCLI(t, "-sched", "hier:sfq(drr,edd)", "-dur", "0.01"); code != 0 {
		t.Errorf("hier:<spec> rejected (exit %d): %s", code, stderr)
	}
}

func TestParseWeights(t *testing.T) {
	ws, err := parseWeights("", 3)
	if err != nil || len(ws) != 3 || ws[0] != 1 {
		t.Errorf("default weights = %v, %v", ws, err)
	}
	ws, err = parseWeights("1, 2.5 ,3", 3)
	if err != nil || ws[1] != 2.5 {
		t.Errorf("parsed = %v, %v", ws, err)
	}
	if _, err := parseWeights("1,2", 3); err == nil {
		t.Error("count mismatch accepted")
	}
	if _, err := parseWeights("1,x,3", 3); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := parseWeights("1,-2,3", 3); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestRegistryConstruction checks the paper's discipline names construct
// through the registry with the flags' option set.
func TestRegistryConstruction(t *testing.T) {
	for _, name := range []string{"sfq", "hsfq", "wfq", "fqs", "scfq", "drr", "vclock", "edd", "fifo", "fairairport"} {
		s, err := sched.New(name, sched.WithAssumedCapacity(1000))
		if err != nil || s == nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := sched.New("nope", sched.WithAssumedCapacity(1000)); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestTandemSpecs checks the -hops>1 chain builder: contiguous hop
// wiring, one scheduler instance per hop, every flow routed end to end,
// and the flag-validation errors.
func TestTandemSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	links, flows, err := tandemSpecs("sfq", 3, 2, []float64{1, 2}, 1e6, 4000, 0.001, "const", rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 3 || len(flows) != 2 {
		t.Fatalf("got %d links, %d flows", len(links), len(flows))
	}
	for i, ls := range links {
		if ls.Name != "hop"+string(rune('1'+i)) {
			t.Errorf("link %d named %q", i, ls.Name)
		}
		if i > 0 && links[i-1].To != ls.From {
			t.Errorf("chain broken at hop %d: %q -> %q", i, links[i-1].To, ls.From)
		}
		for j := range links[:i] {
			if links[j].Sched == ls.Sched {
				t.Errorf("hops %d and %d share a scheduler instance", j, i)
			}
		}
	}
	for i, fs := range flows {
		if fs.Flow != i+1 || fs.Weight != float64(i+1) || len(fs.Route) != 3 {
			t.Errorf("flow spec %d = %+v", i, fs)
		}
	}
	// The specs must be accepted by the sharded builder, with no
	// propagation delay too.
	if _, err := topo.BuildSharded(links, flows); err != nil {
		t.Errorf("BuildSharded rejected tandem specs: %v", err)
	}
	links, flows, err = tandemSpecs("sfq", 3, 2, []float64{1, 2}, 1e6, 4000, 0, "const", rng)
	if err != nil {
		t.Errorf("zero prop refused: %v", err)
	} else if _, err := topo.BuildSharded(links, flows); err != nil {
		t.Errorf("BuildSharded rejected zero-prop tandem specs: %v", err)
	}

	if _, _, err := tandemSpecs("sfq", 1, 1, []float64{1}, 1e6, 0, 0.001, "const", rng); err == nil {
		t.Error("hops=1 accepted")
	}
	for _, prop := range []float64{math.NaN(), -0.001, math.Inf(1), math.Inf(-1)} {
		if _, _, err := tandemSpecs("sfq", 2, 1, []float64{1}, 1e6, 0, prop, "const", rng); err == nil {
			t.Errorf("prop %v accepted", prop)
		}
	}
	if _, _, err := tandemSpecs("nope", 2, 1, []float64{1}, 1e6, 0, 0.001, "const", rng); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, _, err := tandemSpecs("sfq", 2, 1, []float64{1}, 1e6, 0, 0.001, "nope", rng); err == nil {
		t.Error("unknown server accepted")
	}
}

// TestTandemRunWorkersInvariant drives a short Poisson run through a
// 3-hop chain serially and on 4 workers and requires bit-identical
// digests — the CLI-level pin for the parallel executor — with and
// without propagation delay.
func TestTandemRunWorkersInvariant(t *testing.T) {
	run := func(workers int, prop float64) string {
		rng := rand.New(rand.NewSource(7))
		links, flows, err := tandemSpecs("sfq", 3, 2, []float64{1, 3}, 1e6, 4000, prop, "const", rng)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := topo.BuildSharded(links, flows)
		if err != nil {
			t.Fatal(err)
		}
		for f := 1; f <= 2; f++ {
			if err := startSource("poisson", sh.EntryQueue(f), sh.Entry(f), f,
				3e5*float64(f), 500, 0, 0.5, rng); err != nil {
				t.Fatal(err)
			}
		}
		sh.Run(workers)
		if sh.Sink(1).Count(1) == 0 || sh.Sink(2).Count(2) == 0 {
			t.Fatal("a flow delivered nothing end to end")
		}
		return sh.Digest()
	}
	for _, prop := range []float64{0.0007, 0} {
		if serial, parallel := run(1, prop), run(4, prop); serial != parallel {
			t.Errorf("prop %v: digest differs between 1 and 4 workers:\n%s\nvs\n%s", prop, serial, parallel)
		}
	}
}

// TestTandemPropCLI pins -prop in tandem mode: 0 runs, and the run line
// names the windows but no lookahead; NaN, negative and infinite delays
// exit 2 before anything runs.
func TestTandemPropCLI(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-hops", "3", "-prop", "0", "-workers", "2", "-dur", "0.05")
	if code != 0 {
		t.Fatalf("-prop 0: exit code %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "hops=3 workers=2 windows=") || strings.Contains(stdout, "lookahead") {
		t.Errorf("-prop 0: unexpected run line in\n%s", stdout)
	}
	for _, prop := range []string{"NaN", "-0.001", "+Inf"} {
		if stdout, stderr, code := runCLI(t, "-hops", "3", "-prop", prop, "-dur", "0.05"); code != 2 || stdout != "" {
			t.Errorf("-prop %s: exit code %d, stdout %q (stderr: %s)", prop, code, stdout, stderr)
		}
	}
}

func TestMakeProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"const", "onoff", "slotted", "markov"} {
		p, err := makeProcess(kind, 1000, rng)
		if err != nil || p == nil {
			t.Errorf("%s: %v", kind, err)
		}
		if p.MeanRate() <= 0 {
			t.Errorf("%s: mean rate %v", kind, p.MeanRate())
		}
	}
	if _, err := makeProcess("nope", 1000, rng); err == nil {
		t.Error("unknown process accepted")
	}
}
