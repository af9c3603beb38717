package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// replayDigest flattens one conformance run into a comparable transcript:
// the full dequeue sequence with tags and dequeue times, plus the link's
// transmission intervals. Two runs are "the same schedule" iff their
// digests are byte-equal. (Conformance runs wrap the scheduler in the
// trace recorder, which retains packets and therefore disables pooling —
// the stamped packets stay valid after the run.)
func replayDigest(tr *Trace, mon *sim.Monitor) string {
	var b strings.Builder
	recs := mon.ServiceRecords()
	for i, st := range tr.Deq {
		p := st.P
		fmt.Fprintf(&b, "%d %d %.9g @%.9g tags %.17g %.17g", p.Flow, p.Seq, p.Length, st.Now, p.VirtualStart, p.VirtualFinish)
		if i < len(recs) {
			r := recs[i]
			fmt.Fprintf(&b, " tx %.17g..%.17g", r.Start, r.End)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// directConstructors maps every registered discipline the sut table
// exercises to an assembly from its exported parts — a rank function on
// sched.Ranked, core.New, a hier.Spec, the EDD and Fair Airport types —
// with no option handling in between (DRR, whose quantum is unexported,
// goes through NewDiscipline with an explicit Config). The round-trip test
// holds the registry to these: sched.New(name, opts...) must reproduce the
// direct assembly's schedule exactly.
func directConstructors() map[string]func(w Workload) sched.Interface {
	ranked := func(d sched.Discipline) func(Workload) sched.Interface {
		return func(Workload) sched.Interface { return sched.MustNewRanked(d, sched.Config{}) }
	}
	return map[string]func(w Workload) sched.Interface{
		"sfq":           func(Workload) sched.Interface { return core.New() },
		"sfq-lowweight": ranked(sched.RankSFQ(sched.TieLowWeightFirst)),
		"hsfq": func(Workload) sched.Interface {
			t, err := hier.Build(&hier.Spec{Name: "sfq", Class: "root"}, sched.Config{})
			if err != nil {
				panic(err)
			}
			return t
		},
		"scfq": ranked(sched.RankSCFQ()),
		"wfq": func(w Workload) sched.Interface {
			return sched.MustNewRanked(sched.RankWFQ(false), sched.Config{AssumedCapacity: w.C})
		},
		"fqs": func(w Workload) sched.Interface {
			return sched.MustNewRanked(sched.RankWFQ(true), sched.Config{AssumedCapacity: w.C})
		},
		"vclock": ranked(sched.RankVClock()),
		"drr": func(w Workload) sched.Interface {
			s, err := sched.NewDiscipline("drr", sched.Config{Quantum: drrQuantum(w)})
			if err != nil {
				panic(err)
			}
			return s
		},
		"fifo": ranked(sched.RankFIFO()),
		"edd": func(Workload) sched.Interface {
			return sched.EDD{Ranked: sched.MustNewRanked(sched.RankEDD(), sched.Config{})}
		},
		"fairairport": func(Workload) sched.Interface { return &sched.FairAirport{} },
		"priority":    ranked(sched.RankPriority()),
		// "pifo-sfq" is held to sfq's constructor.
		"pifo-sfq": func(Workload) sched.Interface { return core.New() },
		"lstf":     ranked(pifo.LSTF()),
		"srpt":     ranked(pifo.SRPT()),
		"fifo+":    ranked(pifo.FIFOPlus()),
		"hier:sfq(drr,edd)": func(Workload) sched.Interface {
			return mustTree("sfq(drr,edd)")
		},
		"hier:sfq(edd,scfq,drr,fifo)": func(Workload) sched.Interface {
			return mustTree("sfq(edd,scfq,drr,fifo)")
		},
		"hier:pifo-sfq(pifo-sfq,pifo-sfq)": func(Workload) sched.Interface {
			return mustTree("pifo-sfq(pifo-sfq,pifo-sfq)")
		},
		"hier:priority(fifo,scfq)": func(Workload) sched.Interface {
			return mustTree("priority(fifo,scfq)")
		},
	}
}

// mustTree builds a tree from a grammar spec the test knows to be valid.
func mustTree(spec string) *hier.Tree {
	sp, err := hier.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	t, err := hier.Build(sp, sched.Config{})
	if err != nil {
		panic(err)
	}
	return t
}

// registryConstructors builds the same disciplines through sched.New.
func registryConstructors() map[string]func(w Workload) sched.Interface {
	return map[string]func(w Workload) sched.Interface{
		"sfq":                              mk("sfq"),
		"sfq-lowweight":                    mk("sfq-lowweight"),
		"hsfq":                             mk("hsfq"),
		"scfq":                             mk("scfq"),
		"wfq":                              func(w Workload) sched.Interface { return sched.MustNew("wfq", sched.WithAssumedCapacity(w.C)) },
		"fqs":                              func(w Workload) sched.Interface { return sched.MustNew("fqs", sched.WithAssumedCapacity(w.C)) },
		"vclock":                           mk("vclock"),
		"drr":                              func(w Workload) sched.Interface { return sched.MustNew("drr", sched.WithQuantum(drrQuantum(w))) },
		"fifo":                             mk("fifo"),
		"edd":                              mk("edd"),
		"fairairport":                      mk("fairairport"),
		"priority":                         mk("priority"),
		"pifo-sfq":                         mk("pifo-sfq"),
		"lstf":                             mk("lstf"),
		"srpt":                             mk("srpt"),
		"fifo+":                            mk("fifo+"),
		"hier:sfq(drr,edd)":                mk("hier:sfq(drr,edd)"),
		"hier:sfq(edd,scfq,drr,fifo)":      mk("hier:sfq(edd,scfq,drr,fifo)"),
		"hier:pifo-sfq(pifo-sfq,pifo-sfq)": mk("hier:pifo-sfq(pifo-sfq,pifo-sfq)"),
		"hier:priority(fifo,scfq)":         mk("hier:priority(fifo,scfq)"),
	}
}

// TestRegistryRoundTrip replays randomized workloads on registry-built and
// directly constructed schedulers and requires identical schedules.
func TestRegistryRoundTrip(t *testing.T) {
	direct := directConstructors()
	viaReg := registryConstructors()
	for _, old := range retiredSutNames {
		direct[old], viaReg[old] = direct[retiredNames[old]], viaReg[retiredNames[old]]
	}
	if len(direct) != len(viaReg) {
		t.Fatalf("constructor tables diverge: %d direct vs %d registry", len(direct), len(viaReg))
	}
	seeds := int64(50)
	if testing.Short() {
		seeds = 10
	}
	// A runtime is built by rt.New only. sched.New refuses every runtime
	// option, naming rt.New, though this binary links internal/rt
	// (runtime_test.go); rt.New takes the same names and options.
	t.Run("runtime-combos", func(t *testing.T) {
		for _, opts := range [][]sched.Option{
			{sched.WithShards(-1)},
			{sched.WithShards(2)},
			{sched.WithClock(&sched.ManualClock{})},
			{sched.WithClock(&sched.ManualClock{}), sched.WithShards(4)},
		} {
			if _, err := sched.New("sfq", opts...); !errors.Is(err, sched.ErrBadConfig) || !strings.Contains(err.Error(), "rt.New") {
				t.Errorf("sched.New with %+v = %v, want ErrBadConfig naming rt.New", sched.BuildConfig(opts...), err)
			}
		}
		if _, err := sched.New("sfq", sched.WithShards(1)); err != nil {
			t.Errorf("sched.New(sfq, WithShards(1)) = %v, want a bare instance", err)
		}
		if _, err := rt.New("sfq", sched.WithShards(-1)); !errors.Is(err, sched.ErrBadConfig) {
			t.Errorf("rt.New with WithShards(-1): %v, want ErrBadConfig", err)
		}
		if _, err := rt.New("no-such", sched.WithClock(&sched.ManualClock{})); !errors.Is(err, sched.ErrBadConfig) {
			t.Errorf("rt.New of an unknown name: %v, want ErrBadConfig", err)
		}
		r, err := rt.New("sfq", sched.WithClock(&sched.ManualClock{}), sched.WithShards(4))
		if err != nil {
			t.Fatalf("rt.New: %v", err)
		}
		if err := r.AddFlow(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := r.Enqueue(&sched.Packet{Flow: 1, Length: 1}); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Dequeue(); !ok {
			t.Fatal("runtime did not serve its packet")
		}
	})

	for name, mkDirect := range direct {
		mkReg, ok := viaReg[name]
		if !ok {
			t.Fatalf("no registry constructor for %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				w := Random(rand.New(rand.NewSource(seed)), allKinds[int(seed)%len(allKinds)], pktsPerFlow)
				trD, resD, err := Run(mkDirect(w), w, nil)
				if err != nil {
					t.Fatalf("seed %d direct: %v", seed, err)
				}
				trR, resR, err := Run(mkReg(w), w, nil)
				if err != nil {
					t.Fatalf("seed %d registry: %v", seed, err)
				}
				if dd, dr := replayDigest(trD, resD.Mon), replayDigest(trR, resR.Mon); dd != dr {
					t.Fatalf("seed %d: registry scheduler diverged from direct constructor\ndirect:\n%s\nregistry:\n%s", seed, dd, dr)
				}
			}
		})
	}
}

// retiredNames maps each alias the registry took before Register lost its
// aliases parameter to the discipline the alias built. The tables that
// range over the registry keep a row under each, built through the
// registry as that discipline, so every row keeps the id it had while the
// aliases were registered.
var retiredNames = map[string]string{
	"flowsfq":     "sfq",
	"vc":          "vclock",
	"fa":          "fairairport",
	"fifoplus":    "fifo+",
	"pifo-scfq":   "scfq",
	"pifo-vclock": "vclock",
	"pifo-edd":    "edd",
	"pifo-wfq":    "wfq",
}

// retiredSutNames are the retired names that had sut rows: the flow-core
// spelling of sfq and the PIFO spellings of the tag-based family.
var retiredSutNames = []string{"flowsfq", "pifo-scfq", "pifo-vclock", "pifo-edd", "pifo-wfq"}

// registryRows returns the registered names and the retired ones, sorted:
// the rows of the tables that range over the registry.
func registryRows() []string {
	rows := sched.Names()
	for old := range retiredNames {
		rows = append(rows, old)
	}
	sort.Strings(rows)
	return rows
}

// sutRegistryName maps a sut-table name, or a retired name, to the registry
// name it covers. hsfq's sut row is named "hsfq-flat" because the matrix
// exercises it as a degenerate flat tree.
func sutRegistryName(sutName string) string {
	if sutName == "hsfq-flat" {
		return "hsfq"
	}
	if name, ok := retiredNames[sutName]; ok {
		return name
	}
	return sutName
}

// TestRegistryCoversAllSuts pins the sut table, the round-trip constructor
// tables, and the tag-monotonicity specs to the registry: registering a
// discipline without wiring it into the conformance matrix must fail this
// test with the missing names listed, not silently shrink coverage.
func TestRegistryCoversAllSuts(t *testing.T) {
	names := sched.Names()
	registered := make(map[string]bool, len(names))
	for _, n := range names {
		registered[n] = true
	}
	for name := range registryConstructors() {
		if !registered[name] {
			t.Errorf("constructor table references unregistered discipline %q", name)
		}
	}
	// Exemptions: the disciplines with no packet-visible tag to assert.
	// Their per-flow key monotonicity is structural (FIFO/DRR round-robin
	// keys, HSFQ's internal tree).
	noTag := map[string]bool{"hsfq": true, "drr": true, "fifo": true}

	sutFor := make(map[string]bool)
	for _, s := range suts() {
		sutFor[sutRegistryName(s.name)] = true
	}
	specFor := make(map[string]bool)
	for name := range tagMonoSpecs() {
		specFor[sutRegistryName(name)] = true
	}
	covered := registryConstructors()
	var missingSut, missingRoundTrip, missingSpec []string
	for _, n := range names {
		if !sutFor[n] {
			missingSut = append(missingSut, n)
		}
		if covered[n] == nil {
			missingRoundTrip = append(missingRoundTrip, n)
		}
		if !specFor[n] && !noTag[n] {
			missingSpec = append(missingSpec, n)
		}
	}
	if len(missingSut) > 0 {
		t.Errorf("registered disciplines missing a conformance sut row: %v", missingSut)
	}
	if len(missingRoundTrip) > 0 {
		t.Errorf("registered disciplines missing round-trip constructor coverage: %v", missingRoundTrip)
	}
	if len(missingSpec) > 0 {
		t.Errorf("registered disciplines missing a tagMonoSpec (add one or document the exemption): %v", missingSpec)
	}
	// Sut rows and specs must not reference names the registry lacks.
	for _, s := range suts() {
		if !registered[sutRegistryName(s.name)] {
			t.Errorf("sut row %q does not correspond to a registered discipline", s.name)
		}
	}
	for name := range tagMonoSpecs() {
		if !registered[sutRegistryName(name)] {
			t.Errorf("tagMonoSpec %q does not correspond to a registered discipline", name)
		}
	}
	// And unknown names fail loudly, listing what exists.
	if _, err := sched.New("no-such-discipline"); err == nil || !strings.Contains(err.Error(), "sfq") {
		t.Errorf("New(no-such-discipline) error should list known names, got %v", err)
	}
	if _, err := sched.New("wfq"); !errors.Is(err, sched.ErrBadConfig) {
		t.Errorf("New(wfq) without capacity = %v, want ErrBadConfig", err)
	}
}

// TestProbeTransparency replays every discipline probed and unprobed and
// requires bit-identical schedules: an attached obs.Observer must be
// purely observational. Seeds run through RunMatrix, so with -race this
// doubles as the probed parallel-harness race check.
func TestProbeTransparency(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for _, s := range suts() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			errs := RunMatrix(seeds, 0, func(seed int64) error {
				w := Random(rand.New(rand.NewSource(seed)), s.kinds[int(seed)%len(s.kinds)], pktsPerFlow)
				trBare, resBare, err := Run(s.make(w), w, nil)
				if err != nil {
					return err
				}
				var o *obs.Observer
				trObs, resObs, err := RunWith(s.make(w), w, nil, func(l *sim.Link) {
					o = obs.Observe(l)
				})
				if err != nil {
					return err
				}
				if db, dp := replayDigest(trBare, resBare.Mon), replayDigest(trObs, resObs.Mon); db != dp {
					return fmt.Errorf("probed replay diverged\nbare:\n%s\nprobed:\n%s", db, dp)
				}
				snap := o.Snapshot()
				if n := len(resObs.Mon.ServiceRecords()); snap.Delivered != int64(n) {
					return fmt.Errorf("observer delivered %d, monitor saw %d", snap.Delivered, n)
				}
				if snap.ProbeDequeues != int64(len(trObs.Deq)) {
					return fmt.Errorf("probe dequeues %d, trace has %d", snap.ProbeDequeues, len(trObs.Deq))
				}
				return nil
			})
			if seed, err := FirstFailure(errs); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestMatrixStats exercises the per-shard aggregation: counters must be
// exact and shard totals must cover every seed, whatever the stealing
// order was.
func TestMatrixStats(t *testing.T) {
	errs, st := RunMatrixStats(100, 4, func(seed int64) error {
		switch {
		case seed%10 == 3:
			return fmt.Errorf("seed %d fails", seed)
		case seed == 77:
			panic("boom")
		}
		return nil
	})
	if len(errs) != 100 || st.Seeds != 100 {
		t.Fatalf("seeds = %d, errs = %d", st.Seeds, len(errs))
	}
	if st.Failures != 11 || st.Panics != 1 {
		t.Errorf("failures = %d panics = %d, want 11 and 1", st.Failures, st.Panics)
	}
	if st.Workers != 4 || len(st.SeedsPerShard) != 4 {
		t.Fatalf("workers = %d shards = %d", st.Workers, len(st.SeedsPerShard))
	}
	sum := 0
	for _, n := range st.SeedsPerShard {
		sum += n
	}
	if sum != 100 {
		t.Errorf("shard seeds sum to %d, want 100", sum)
	}
}
