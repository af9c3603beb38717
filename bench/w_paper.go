package main

import (
	"os"
	"strings"

	"repro/internal/experiments"
)

// paper-suite: regenerate every table and figure of the paper, as
// cmd/experiments does. Every experiment runs with the paper's parameters
// (scale 1.0) except fig2b, which at full scale is 9 s of the suite's 11 s
// and would leave room for one trial per run; it runs at fig2bScale, which
// keeps it the largest single experiment without letting it be the only one
// that counts.
const fig2bScale = 0.02

// goldenPath is the pinned output of `cmd/experiments` (scale 1.0, seed 1).
const goldenPath = "docs/experiments_full_output.txt"

type experiment struct {
	id string
	// seeded reports whether the output depends on the seed (and so can be
	// compared with the golden file only for seed 1).
	seeded bool
	run    func(seed int64) *experiments.Result
}

// paperExperiments lists the suite in paper order. scale applies to the
// experiments that take one, fig2b aside; it is 1 except under -short.
func paperExperiments(scale, fig2b float64) []experiment {
	return []experiment{
		{"table1", true, func(s int64) *experiments.Result { return experiments.Table1(s) }},
		{"example1", false, func(int64) *experiments.Result { return experiments.Example1() }},
		{"example2", false, func(int64) *experiments.Result { return experiments.Example2() }},
		{"fig1b", true, func(s int64) *experiments.Result {
			return experiments.Fig1b(experiments.Fig1Config{Scale: scale, Seed: s})
		}},
		{"fig2a", false, func(int64) *experiments.Result { return experiments.Fig2a() }},
		{"fig2b", true, func(s int64) *experiments.Result {
			return experiments.Fig2b(experiments.Fig2bConfig{Scale: fig2b, Seed: s})
		}},
		{"fig3b", true, func(s int64) *experiments.Result {
			return experiments.Fig3b(experiments.Fig3Config{Scale: scale, Seed: s})
		}},
		{"scfqdelay", true, func(s int64) *experiments.Result { return experiments.SCFQDelay(s) }},
		{"wfqdelta", false, func(int64) *experiments.Result { return experiments.WFQDelta() }},
		{"example3", false, func(int64) *experiments.Result { return experiments.Example3() }},
		{"delayshift", true, func(s int64) *experiments.Result {
			return experiments.DelayShift(experiments.DelayShiftConfig{Scale: scale, Seed: s})
		}},
		{"residual", true, func(s int64) *experiments.Result { return experiments.Residual(s) }},
		{"e2ebound", true, func(s int64) *experiments.Result {
			return experiments.EndToEndBound(experiments.E2EConfig{Scale: scale, Seed: s})
		}},
		{"ebftail", true, func(s int64) *experiments.Result {
			return experiments.EBFTail(experiments.EBFTailConfig{Scale: scale, Seed: s})
		}},
		{"genrate", true, func(s int64) *experiments.Result { return experiments.GenRate(s) }},
		{"bounds", false, func(int64) *experiments.Result { return experiments.Bounds(experiments.BoundsConfig{}) }},
		{"ablation-tie", true, func(s int64) *experiments.Result { return experiments.AblationTieBreak(s) }},
		{"ablation-clock", true, func(s int64) *experiments.Result { return experiments.AblationWFQClock(s) }},
		{"ablation-hier", true, func(s int64) *experiments.Result { return experiments.AblationHierarchyOverhead(s) }},
		{"chaos", true, func(s int64) *experiments.Result { return experiments.FaultContrast(s) }},
		{"ups-replay", true, func(s int64) *experiments.Result { return experiments.UPSReplay(s) }},
		{"liveops", true, func(s int64) *experiments.Result { return experiments.LiveOps(s) }},
		{"composed-tree", true, func(s int64) *experiments.Result { return experiments.ComposedTree(s) }},
	}
}

// readGolden splits the pinned suite output into one text per experiment
// id. It returns nil when the file is not there to read.
func readGolden() map[string]string {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil
	}
	out := make(map[string]string)
	for _, sec := range strings.Split(string(data), "\n\n== ") {
		sec = strings.TrimPrefix(sec, "== ")
		id, _, ok := strings.Cut(sec, ":")
		if !ok {
			continue
		}
		out[id] = "== " + strings.TrimRight(sec, "\n") + "\n"
	}
	return out
}

type paperInst struct {
	e    *env
	exps []experiment
	ref  []string // output of the warm-up pass, per experiment
	tk   *track
}

func setupPaper(e *env, _ int) instance {
	scale := e.pickf(1, 0.02)
	p := &paperInst{e: e, exps: paperExperiments(scale, e.pickf(fig2bScale, 0.002))}
	if e.tr != nil {
		p.tk = e.tr.track("")
	}
	e.hashFloats(float64(e.seed), fig2bScale)
	// The warm-up pass is also the reference the timed passes must repeat
	// byte for byte, and the one compared with the golden file.
	p.ref = make([]string, len(p.exps))
	golden := readGolden()
	for i, x := range p.exps {
		p.ref[i] = x.run(e.seed).String()
		want, pinned := golden[x.id]
		if !pinned || x.id == "fig2b" || x.seeded && (e.seed != 1 || scale != 1) {
			continue
		}
		e.q.check(p.ref[i] == want, "paper-suite: %s differs from %s", x.id, goldenPath)
	}
	return p
}

func (p *paperInst) trial() (ops, failed int64) {
	for i, x := range p.exps {
		if p.tk != nil {
			p.tk.begin("experiments." + x.id)
		}
		out := x.run(p.e.seed).String()
		if p.tk != nil {
			p.tk.end()
		}
		ops++
		if out != p.ref[i] {
			failed++
		}
	}
	return ops, failed
}

func (p *paperInst) close() {}

// paperLayers reports the mean span of every experiment that has a metric of
// its own, and the rest together.
func paperLayers(_ *env, _, traced *measured, sum *traceSummary, out map[string]float64) {
	passes := float64(traced.trialCount())
	if passes == 0 {
		return
	}
	rest := 0.0
	for _, x := range paperExperiments(1, 1) {
		span, name := "experiments."+x.id, "experiments."+x.id+"_ms"
		own := false
		for _, s := range perLayer {
			own = own || s.Name == name
		}
		if own {
			out[name] = float64(sum.totalNs(span)) / passes / 1e6
		} else {
			rest += float64(sum.totalNs(span)) / passes / 1e6
		}
	}
	out["experiments.rest_ms"] = rest
}

var paperSuite = workloadDef{
	name: "paper-suite",
	op:   "one experiment regenerated",
	why: "What a reader of the paper runs: all 23 experiments (fig2b at scale 0.02). Event engine, sim.Link " +
		"and sources with under 20 pending events and 17 flows: small-queue eventq cost and allocation show.",
	setup:        setupPaper,
	layers:       paperLayers,
	minInstances: 3,
}
