// Command sfqsim runs a single-switch packet-scheduling simulation and
// prints per-flow throughput, delay, and fairness statistics.
//
// Usage example — four CBR flows with weights 1:2:3:4 on a 10 Mb/s link
// scheduled by SFQ, with a fluctuating service rate:
//
//	sfqsim -sched sfq -rate 10 -server onoff -flows 4 -weights 1,2,3,4 \
//	       -pkt 500 -load 1.5 -dur 10
//
// Schedulers: any name in the sched registry (sfq, flowsfq, hsfq, wfq,
// fqs, scfq, drr, vc, edd, fifo, fa, ...), including the PIFO layer's
// rank-function re-expressions and UPS disciplines (pifo-sfq, pifo-wfq,
// lstf, srpt, fifo+, ...); run with -sched help to list.
// Servers: const, onoff, slotted, markov.
//
// Observability (all optional; the default output is unchanged):
//
//	-trace FILE       write the link's event trace ring as CSV on exit
//	-trace-cap N      trace ring capacity (newest N events are kept)
//	-metrics FILE     write the metrics registry snapshot as JSON on exit
//	-dump-every SEC   periodic expvar-style metrics dumps to stderr
//
// Live operations (internal/liveops):
//
//	-snapshot FILE        at t = -dur, write the scheduler state (flow
//	                      registrations, virtual time, tag chains, queued
//	                      backlog) as a versioned, digest-pinned envelope
//	-restore FILE         before the run, load an envelope written by
//	                      -snapshot into the (fresh, same -sched) scheduler;
//	                      the restored backlog is adopted by the link and
//	                      transmission continues where the snapshot stopped
//	-set-weight F:W@T     at simulated time T, change flow F's weight to W
//	                      live (repeatable, e.g. -set-weight 2:4.5@1.0)
//
// Multi-hop topology (internal/topo sharded executor):
//
//	-hops N     run an N-link tandem chain instead of a single link; every
//	            hop gets its own scheduler + capacity process and all flows
//	            traverse the whole chain (stats report the last hop)
//	-workers N  pipeline the hops on N parallel workers (0 = one per CPU);
//	            results are bit-identical for any worker count
//	-prop SEC   per-hop propagation delay, finite and >= 0
//
// The observability and live-operations flags operate on a single link's
// state and require -hops=1 (the default, whose output is unchanged).
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	_ "repro/internal/core" // registers the SFQ family of schedulers
	"repro/internal/eventq"
	"repro/internal/fairness"
	"repro/internal/liveops"
	"repro/internal/obs"
	_ "repro/internal/pifo" // registers the PIFO/UPS disciplines
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topo"
	"repro/internal/tracelog"
	"repro/internal/units"
)

// weightEvent is one parsed -set-weight spec: flow F to weight W at time T.
type weightEvent struct {
	flow int
	w    float64
	at   float64
}

// weightEvents implements flag.Value for the repeatable -set-weight flag.
type weightEvents []weightEvent

func (e *weightEvents) String() string {
	parts := make([]string, len(*e))
	for i, ev := range *e {
		parts[i] = fmt.Sprintf("%d:%g@%g", ev.flow, ev.w, ev.at)
	}
	return strings.Join(parts, ",")
}

func (e *weightEvents) Set(s string) error {
	spec, tPart, ok := strings.Cut(s, "@")
	if !ok {
		return fmt.Errorf("bad -set-weight %q: want flow:weight@time, e.g. 2:4.5@1.0", s)
	}
	fPart, wPart, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("bad -set-weight %q: missing ':' between flow and weight (want flow:weight@time)", s)
	}
	flow, err := strconv.Atoi(strings.TrimSpace(fPart))
	if err != nil || flow < 1 {
		return fmt.Errorf("bad -set-weight %q: flow %q must be a positive integer", s, fPart)
	}
	w, err := strconv.ParseFloat(strings.TrimSpace(wPart), 64)
	if err != nil || w <= 0 {
		return fmt.Errorf("bad -set-weight %q: weight %q must be a positive number", s, wPart)
	}
	at, err := strconv.ParseFloat(strings.TrimSpace(tPart), 64)
	if err != nil || at < 0 {
		return fmt.Errorf("bad -set-weight %q: time %q must be a non-negative number (seconds)", s, tPart)
	}
	*e = append(*e, weightEvent{flow: flow, w: w, at: at})
	return nil
}

func main() {
	var (
		schedName  = flag.String("sched", "sfq", "scheduler (registry name; 'help' lists all)")
		rateMbps   = flag.Float64("rate", 10, "link rate in Mb/s")
		serverKind = flag.String("server", "const", "capacity process: const|onoff|slotted|markov")
		nFlows     = flag.Int("flows", 4, "number of flows")
		weightsArg = flag.String("weights", "", "comma-separated weights (default: equal)")
		pktBytes   = flag.Float64("pkt", 500, "packet size in bytes")
		load       = flag.Float64("load", 1.2, "offered load as a fraction of link rate")
		model      = flag.String("traffic", "poisson", "traffic model: poisson|cbr|onoff")
		duration   = flag.Float64("dur", 10, "simulated seconds")
		seed       = flag.Int64("seed", 1, "random seed")
		buffer     = flag.Float64("buffer", 0, "link buffer in bytes (0 = unbounded)")
		traceFile  = flag.String("trace", "", "write link event trace CSV to this file")
		traceCap   = flag.Int("trace-cap", obs.DefaultTraceCap, "trace ring capacity (events)")
		metricsOut = flag.String("metrics", "", "write metrics snapshot JSON to this file ('-' = stdout)")
		dumpEvery  = flag.Float64("dump-every", 0, "periodic metrics dump interval in simulated seconds (0 = off; dumps to stderr)")
		snapFile   = flag.String("snapshot", "", "write a liveops state envelope of the scheduler at t=-dur to this file")
		restFile   = flag.String("restore", "", "restore a liveops state envelope into the scheduler before the run")
		hops       = flag.Int("hops", 1, "tandem chain length; >1 runs the multi-link sharded topology")
		workers    = flag.Int("workers", 1, "parallel workers for -hops>1 (0 = one per CPU)")
		propDelay  = flag.Float64("prop", 0.001, "per-hop propagation delay in seconds (-hops>1)")
	)
	var setWeights weightEvents
	flag.Var(&setWeights, "set-weight", "live weight change as flow:weight@time (repeatable)")
	listScheds := flag.Bool("list-scheds", false, "print the registered scheduler names, one per line, and exit")
	flag.Parse()

	if *listScheds {
		for _, n := range sched.Names() { // Names() is sorted
			fmt.Println(n)
		}
		return
	}
	if *schedName == "help" {
		fmt.Println("registered schedulers:", strings.Join(sched.Names(), " "))
		return
	}
	// Reject unknown names before touching any other flag, with the full
	// sorted list — a typo should not surface as a mid-setup error. Known
	// covers the registry map plus the open-ended families ("hier:<spec>"),
	// which is why this is not a Names() membership test.
	if !sched.Known(*schedName) {
		fmt.Fprintf(os.Stderr, "sfqsim: unknown scheduler %q; registered schedulers:\n", *schedName)
		for _, n := range sched.Names() {
			fmt.Fprintln(os.Stderr, "  "+n)
		}
		os.Exit(2)
	}

	linkRate := units.Mbps(*rateMbps)
	weights, err := parseWeights(*weightsArg, *nFlows)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *hops > 1 {
		// The live-ops and observability flags address one link's scheduler
		// state; with a chain of independent per-hop schedulers there is no
		// single state to snapshot, reconfigure, or trace.
		if *snapFile != "" || *restFile != "" || len(setWeights) > 0 {
			fmt.Fprintln(os.Stderr, "sfqsim: -snapshot, -restore, and -set-weight require -hops=1")
			os.Exit(2)
		}
		if *traceFile != "" || *metricsOut != "" || *dumpEvery > 0 {
			fmt.Fprintln(os.Stderr, "sfqsim: -trace, -metrics, and -dump-every require -hops=1")
			os.Exit(2)
		}
		if err := runTandem(tandemConfig{
			sched: *schedName, server: *serverKind, model: *model,
			hops: *hops, workers: *workers, flows: *nFlows,
			weights: weights, linkRate: linkRate, rateMbps: *rateMbps,
			load: *load, pktBytes: *pktBytes, buffer: *buffer,
			prop: *propDelay, duration: *duration, seed: *seed,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "sfqsim:", err)
			os.Exit(2)
		}
		return
	}

	// AssumedCapacity feeds the disciplines that need the link rate at
	// construction (wfq, fqs); the rest ignore it.
	s, err := sched.New(*schedName, sched.WithAssumedCapacity(linkRate))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfqsim:", err)
		os.Exit(2)
	}

	// Validate the live-ops capabilities up front: a discipline that cannot
	// snapshot or reconfigure should fail before the simulation, not at the
	// scheduled event.
	snap, isSnap := s.(sched.Snapshotter)
	if (*snapFile != "" || *restFile != "") && !isSnap {
		fmt.Fprintf(os.Stderr, "sfqsim: scheduler %q does not support snapshot/restore\n", *schedName)
		os.Exit(2)
	}
	reconf, isReconf := s.(sched.Reconfigurable)
	if len(setWeights) > 0 && !isReconf {
		fmt.Fprintf(os.Stderr, "sfqsim: scheduler %q does not support live weight changes\n", *schedName)
		os.Exit(2)
	}
	// base is the simulation start time: 0 normally, the snapshot's capture
	// instant after a restore (discipline state carries wall-clock
	// quantities, so the restored run resumes the donor's time base — the
	// whole event script below is offset by it).
	base := 0.0
	if *restFile != "" {
		data, err := os.ReadFile(*restFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfqsim:", err)
			os.Exit(2)
		}
		env, err := liveops.Peek(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfqsim: restore %s: %v\n", *restFile, err)
			os.Exit(2)
		}
		base = env.Time
		if err := liveops.Restore(data, snap); err != nil {
			fmt.Fprintf(os.Stderr, "sfqsim: restore %s: %v\n", *restFile, err)
			os.Exit(2)
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	proc, err := makeProcess(*serverKind, linkRate, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	q := &eventq.Queue{}
	sink := sim.NewSink(q)
	link := sim.NewLink(q, "link", s, proc, sink)
	link.BufferBytes = *buffer
	mon := sim.Attach(link)

	// Observability is attached only on request, so a bare run keeps the
	// probe-free zero-allocation hot path.
	var reg *obs.Registry
	if *traceFile != "" || *metricsOut != "" || *dumpEvery > 0 {
		reg = obs.NewRegistry()
		reg.Observe(link, obs.WithTraceCap(*traceCap))
		if *dumpEvery > 0 {
			obs.PeriodicDump(q, os.Stderr, reg, *dumpEvery)
		}
	}

	// A restored scheduler already carries flow registrations (and possibly
	// a queued backlog): adopt the backlog into the link's accounting and
	// skip re-adding the restored flows, reporting their restored weights.
	restored := map[int]float64{}
	adopted := 0
	if *restFile != "" {
		if fl, ok := s.(sched.FlowLister); ok {
			for _, info := range fl.ListFlows() {
				restored[info.Flow] = info.Weight
			}
		}
		// Adopt at base, once the clock has caught up with the donor's:
		// the backlog's tags and guards live in the donor's time base.
		q.At(base, func() { adopted = link.AdoptBacklog() })
	}

	// Live weight changes fire as simulation events (times are relative to
	// the run start); failures — an unknown flow, a draining flow — abort
	// the run after the queue finishes.
	var liveErrs []error
	for _, ev := range setWeights {
		ev := ev
		q.At(base+ev.at, func() {
			if err := reconf.SetWeight(ev.flow, ev.w); err != nil {
				liveErrs = append(liveErrs, fmt.Errorf("set-weight %d:%g@%g: %w", ev.flow, ev.w, ev.at, err))
				return
			}
			if ev.flow <= *nFlows {
				weights[ev.flow-1] = ev.w // final report shows the live weight
			}
		})
	}
	if *snapFile != "" {
		q.At(base+*duration, func() {
			data, err := liveops.SnapshotAt(q.Now(), snap)
			if err == nil {
				err = os.WriteFile(*snapFile, data, 0o644)
			}
			if err != nil {
				liveErrs = append(liveErrs, fmt.Errorf("snapshot %s: %w", *snapFile, err))
			}
		})
	}

	for f := 1; f <= *nFlows; f++ {
		if w, ok := restored[f]; ok {
			weights[f-1] = w
		}
	}
	sumW := 0.0
	for _, w := range weights {
		sumW += w
	}
	for f := 1; f <= *nFlows; f++ {
		if _, ok := restored[f]; !ok {
			if err := s.AddFlow(f, weights[f-1]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		flowRate := *load * linkRate * weights[f-1] / sumW
		if err := startSource(*model, q, link, f, flowRate, *pktBytes, base, base+*duration, rng); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	q.Run()

	for _, e := range liveErrs {
		fmt.Fprintln(os.Stderr, "sfqsim:", e)
	}
	if len(liveErrs) > 0 {
		os.Exit(1)
	}

	fmt.Printf("scheduler=%s server=%s link=%.2f Mb/s load=%.2f duration=%.1fs drops=%d\n",
		*schedName, *serverKind, *rateMbps, *load, *duration, link.Drops())
	if adopted > 0 {
		fmt.Printf("restored %d queued packets from %s\n", adopted, *restFile)
	}
	fmt.Println()
	fmt.Printf("%4s %8s %12s %12s %12s %12s\n",
		"flow", "weight", "Mb/s", "avg ms", "p99 ms", "max ms")
	for f := 1; f <= *nFlows; f++ {
		d := mon.QueueDelay(f)
		fmt.Printf("%4d %8.2f %12.4f %12.3f %12.3f %12.3f\n",
			f, weights[f-1],
			units.ToMbps(mon.ServedBytes(f) / *duration),
			units.ToMillis(d.Mean()), units.ToMillis(d.Percentile(99)), units.ToMillis(d.Max()))
	}

	fmt.Printf("\npairwise measured unfairness H(f,m) (bytes per unit weight):\n")
	for f := 1; f <= *nFlows; f++ {
		for m := f + 1; m <= *nFlows; m++ {
			h := fairness.MonitorUnfairness(mon, f, m, weights[f-1], weights[m-1])
			fmt.Printf("  H(%d,%d) = %.1f\n", f, m, h)
		}
	}

	if reg != nil {
		if err := writeObservability(reg, *traceFile, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "sfqsim:", err)
			os.Exit(1)
		}
	}
}

// startSource launches one traffic source for flow f, emitting into out on
// queue q between start and stop. Stochastic models draw exactly one child
// seed from rng, so the per-flow seeding order is independent of the model
// mix and of how many links the frames will traverse.
func startSource(model string, q *eventq.Queue, out sim.Consumer, f int, rate, pktBytes, start, stop float64, rng *rand.Rand) error {
	switch model {
	case "poisson":
		(&source.Poisson{Q: q, Out: out, Flow: f, Rate: rate, PktBytes: pktBytes,
			Start: start, Stop: stop, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
	case "cbr":
		(&source.CBR{Q: q, Out: out, Flow: f, Rate: rate, PktBytes: pktBytes,
			Start: start, Stop: stop}).Run()
	case "onoff":
		(&source.OnOff{Q: q, Out: out, Flow: f, PeakRate: 2 * rate, PktBytes: pktBytes,
			MeanOn: 0.2, MeanOff: 0.2, Start: start, Stop: stop,
			Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
	default:
		return fmt.Errorf("unknown traffic model %q", model)
	}
	return nil
}

// tandemConfig carries the flag values the multi-hop mode needs.
type tandemConfig struct {
	sched, server, model   string
	hops, workers, flows   int
	weights                []float64
	linkRate, rateMbps     float64
	load, pktBytes, buffer float64
	prop, duration         float64
	seed                   int64
}

// tandemSpecs builds the N-hop chain n0 --hop1--> n1 ... --hopN--> nN.
// Every hop gets its own scheduler instance and capacity process (distinct
// switches draw independent capacity randomness), and every flow's route is
// the whole chain. The per-hop propagation delay must be finite and >= 0.
func tandemSpecs(schedName string, hops, nFlows int, weights []float64,
	linkRate, buffer, prop float64, serverKind string, rng *rand.Rand) ([]topo.LinkSpec, []topo.FlowSpec, error) {
	if hops < 2 {
		return nil, nil, fmt.Errorf("tandem needs -hops >= 2, got %d", hops)
	}
	if !(prop >= 0) || math.IsInf(prop, 1) {
		return nil, nil, fmt.Errorf("tandem needs a finite -prop >= 0, got %v", prop)
	}
	links := make([]topo.LinkSpec, hops)
	route := make([]string, hops)
	for i := range links {
		s, err := sched.New(schedName, sched.WithAssumedCapacity(linkRate))
		if err != nil {
			return nil, nil, err
		}
		proc, err := makeProcess(serverKind, linkRate, rng)
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("hop%d", i+1)
		links[i] = topo.LinkSpec{
			Name: name, From: fmt.Sprintf("n%d", i), To: fmt.Sprintf("n%d", i+1),
			Sched: s, Proc: proc, PropDelay: prop, Buffer: buffer,
		}
		route[i] = name
	}
	flows := make([]topo.FlowSpec, nFlows)
	for f := 1; f <= nFlows; f++ {
		flows[f-1] = topo.FlowSpec{Flow: f, Weight: weights[f-1], Route: route}
	}
	return links, flows, nil
}

// runTandem executes the multi-hop mode: build the chain, attach the same
// per-flow sources as the single-link mode at the head, run it on the
// requested worker count, and report the last hop's per-flow stats.
func runTandem(cfg tandemConfig) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	links, flows, err := tandemSpecs(cfg.sched, cfg.hops, cfg.flows, cfg.weights,
		cfg.linkRate, cfg.buffer, cfg.prop, cfg.server, rng)
	if err != nil {
		return err
	}
	sh, err := topo.BuildSharded(links, flows)
	if err != nil {
		return err
	}
	sumW := 0.0
	for _, w := range cfg.weights {
		sumW += w
	}
	for f := 1; f <= cfg.flows; f++ {
		flowRate := cfg.load * cfg.linkRate * cfg.weights[f-1] / sumW
		if err := startSource(cfg.model, sh.EntryQueue(f), sh.Entry(f), f,
			flowRate, cfg.pktBytes, 0, cfg.duration, rng); err != nil {
			return err
		}
	}
	sh.Run(cfg.workers)

	var drops int64
	for _, v := range sh.Drops() {
		drops += v
	}
	fmt.Printf("scheduler=%s server=%s link=%.2f Mb/s load=%.2f duration=%.1fs drops=%d\n",
		cfg.sched, cfg.server, cfg.rateMbps, cfg.load, cfg.duration, drops)
	fmt.Printf("hops=%d workers=%d windows=%d\n", cfg.hops, cfg.workers, sh.Windows())

	last := links[cfg.hops-1].Name
	mon := sh.Monitor(last)
	fmt.Println()
	fmt.Printf("%4s %8s %12s %12s %12s %12s\n",
		"flow", "weight", "Mb/s", "avg ms", "p99 ms", "max ms")
	for f := 1; f <= cfg.flows; f++ {
		d := mon.QueueDelay(f)
		fmt.Printf("%4d %8.2f %12.4f %12.3f %12.3f %12.3f\n",
			f, cfg.weights[f-1],
			units.ToMbps(mon.ServedBytes(f)/cfg.duration),
			units.ToMillis(d.Mean()), units.ToMillis(d.Percentile(99)), units.ToMillis(d.Max()))
	}

	fmt.Printf("\npairwise measured unfairness H(f,m) at %s (bytes per unit weight):\n", last)
	for f := 1; f <= cfg.flows; f++ {
		for m := f + 1; m <= cfg.flows; m++ {
			h := fairness.MonitorUnfairness(mon, f, m, cfg.weights[f-1], cfg.weights[m-1])
			fmt.Printf("  H(%d,%d) = %.1f\n", f, m, h)
		}
	}
	return nil
}

// writeObservability exports the trace ring and metrics snapshot.
func writeObservability(reg *obs.Registry, traceFile, metricsOut string) error {
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := tracelog.WriteTraceEvents(f, reg.Get("link").Trace()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		w := os.Stdout
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteJSON(w); err != nil {
			return err
		}
	}
	return nil
}

func parseWeights(arg string, n int) ([]float64, error) {
	if arg == "" {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = 1
		}
		return ws, nil
	}
	parts := strings.Split(arg, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("sfqsim: %d weights for %d flows", len(parts), n)
	}
	ws := make([]float64, n)
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("sfqsim: bad weight %q", p)
		}
		ws[i] = w
	}
	return ws, nil
}

func makeProcess(kind string, linkRate float64, rng *rand.Rand) (server.Process, error) {
	switch kind {
	case "const":
		return server.NewConstantRate(linkRate), nil
	case "onoff":
		return server.NewPeriodicOnOff(linkRate, 0.02), nil
	case "slotted":
		return server.NewRandomSlotted(linkRate, 0.005, rng), nil
	case "markov":
		return server.NewMarkovModulated(
			[]float64{0.5 * linkRate, linkRate, 1.5 * linkRate}, 0.05, rng), nil
	}
	return nil, fmt.Errorf("sfqsim: unknown server %q", kind)
}
