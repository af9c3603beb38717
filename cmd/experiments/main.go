// Command experiments regenerates the tables and figures of the SFQ paper.
//
// Usage:
//
//	experiments [-scale f] [-seed n] [ids...]
//
// With no ids it runs everything in paper order. Available ids:
//
//	table1 example1 example2 fig1b fig2a fig2b fig3b scfqdelay wfqdelta
//	example3 delayshift residual e2ebound ebftail genrate bounds ablation-tie ablation-clock ablation-hier chaos ups-replay liveops composed-tree
//
// -scale shrinks or grows the simulated durations/budgets (1.0 = the
// paper's parameters) and must be finite and > 0; -seed sets the RNG seed
// for the stochastic workloads.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/tracelog"
)

func main() {
	scale := flag.Float64("scale", 1.0, "duration/budget multiplier (1.0 = paper parameters)")
	seed := flag.Int64("seed", 1, "random seed for stochastic workloads")
	dump := flag.String("dump", "", "directory to write figure series CSVs (fig1b_*.csv, fig3b.csv)")
	flag.Parse()

	if err := checkScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "usage: experiments [-scale f] [-seed n] [-dump dir] [ids...]")
		os.Exit(2)
	}
	if *dump != "" {
		if err := dumpSeries(*dump, *scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dump:", err)
			os.Exit(1)
		}
	}

	runners, order := runnerTable(*scale, *seed)

	ids := flag.Args()
	if len(ids) == 0 {
		ids = order
	}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", id, order)
			os.Exit(2)
		}
		fmt.Print(run().String())
		fmt.Println()
	}
}

// checkScale refuses a -scale that no experiment can run at. The library
// configs read 0 as "the default", so 0 would silently run at 1.0; a
// negative scale schedules events in the past, NaN prints NaN columns and
// +Inf never finishes.
func checkScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("experiments: -scale %v: want a finite value > 0", scale)
	}
	return nil
}

// runnerTable builds the experiment registry for the given parameters and
// returns it with the paper-order id list. Exposed separately from main so
// the golden-output test can run the exact same suite in-process.
func runnerTable(scale float64, seed int64) (map[string]func() *experiments.Result, []string) {
	runners := map[string]func() *experiments.Result{
		"table1":   func() *experiments.Result { return experiments.Table1(seed) },
		"example1": experiments.Example1,
		"example2": experiments.Example2,
		"fig1b": func() *experiments.Result {
			return experiments.Fig1b(experiments.Fig1Config{Scale: scale, Seed: seed})
		},
		"fig2a": experiments.Fig2a,
		"fig2b": func() *experiments.Result {
			return experiments.Fig2b(experiments.Fig2bConfig{Scale: scale, Seed: seed})
		},
		"fig3b": func() *experiments.Result {
			return experiments.Fig3b(experiments.Fig3Config{Scale: scale, Seed: seed})
		},
		"scfqdelay": func() *experiments.Result { return experiments.SCFQDelay(seed) },
		"wfqdelta":  experiments.WFQDelta,
		"example3":  experiments.Example3,
		"delayshift": func() *experiments.Result {
			return experiments.DelayShift(experiments.DelayShiftConfig{Scale: scale, Seed: seed})
		},
		"residual": func() *experiments.Result { return experiments.Residual(seed) },
		"e2ebound": func() *experiments.Result {
			return experiments.EndToEndBound(experiments.E2EConfig{Scale: scale, Seed: seed})
		},
		"genrate": func() *experiments.Result { return experiments.GenRate(seed) },
		"ebftail": func() *experiments.Result {
			return experiments.EBFTail(experiments.EBFTailConfig{Scale: scale, Seed: seed})
		},
		"bounds":         func() *experiments.Result { return experiments.Bounds(experiments.BoundsConfig{}) },
		"ablation-tie":   func() *experiments.Result { return experiments.AblationTieBreak(seed) },
		"ablation-clock": func() *experiments.Result { return experiments.AblationWFQClock(seed) },
		"ablation-hier":  func() *experiments.Result { return experiments.AblationHierarchyOverhead(seed) },
		"chaos":          func() *experiments.Result { return experiments.FaultContrast(seed) },
		"ups-replay":     func() *experiments.Result { return experiments.UPSReplay(seed) },
		"liveops":        func() *experiments.Result { return experiments.LiveOps(seed) },
		"composed-tree":  func() *experiments.Result { return experiments.ComposedTree(seed) },
	}
	order := []string{"table1", "example1", "example2", "fig1b", "fig2a",
		"fig2b", "fig3b", "scfqdelay", "wfqdelta", "example3", "delayshift",
		"residual", "e2ebound", "ebftail", "genrate", "bounds",
		"ablation-tie", "ablation-clock", "ablation-hier", "chaos", "ups-replay",
		"liveops", "composed-tree"}
	return runners, order
}

// dumpSeries writes the plottable raw data behind Figures 1(b) and 3(b).
func dumpSeries(dir string, scale float64, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, schedName := range []string{"WFQ", "SFQ"} {
		s := experiments.Fig1bSeries(experiments.Fig1Config{Scale: scale, Seed: seed}, schedName)
		series := map[string][]float64{
			"src2": s.Arrivals[2],
			"src3": s.Arrivals[3],
		}
		f, err := os.Create(filepath.Join(dir, "fig1b_"+schedName+".csv"))
		if err != nil {
			return err
		}
		if err := tracelog.WriteEventSeries(f, series); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	pts := experiments.Fig3bSeries(experiments.Fig3Config{Scale: scale, Seed: seed})
	samples := make([]tracelog.Sample, len(pts))
	for i, p := range pts {
		samples[i] = tracelog.Sample{Time: p.Time, Values: []float64{p.Mbps[0], p.Mbps[1], p.Mbps[2]}}
	}
	f, err := os.Create(filepath.Join(dir, "fig3b.csv"))
	if err != nil {
		return err
	}
	if err := tracelog.WriteSampledSeries(f, []string{"w1_mbps", "w2_mbps", "w3_mbps"}, samples); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote figure series to %s\n", dir)
	return nil
}
