package core

import "repro/internal/sched"

// This file registers the paper's own disciplines with the shared scheduler
// registry, so consumers construct them by name next to the baselines:
//
//	s, err := sched.New("sfq", sched.WithTieBreak(sched.TieLowWeightFirst))
//
// Importing internal/core (directly or transitively) is what makes these
// names available; every registry consumer in this repository already does.
func init() {
	// "flowsfq" is a plain alias: it once named a per-flow-heap variant,
	// which is what every SFQ here has been since the flow-indexed core.
	sched.Register("sfq", func(cfg sched.Config) (sched.Interface, error) {
		return NewTie(cfg.Tie), nil
	}, "flowsfq")
	// "sfq-lowweight" pins the Section 2.3 low-weight-first tie rule
	// regardless of cfg.Tie — it names the configured discipline the
	// conformance matrix and experiments refer to.
	sched.Register("sfq-lowweight", func(sched.Config) (sched.Interface, error) {
		return NewTie(TieLowWeightFirst), nil
	})
	sched.Register("hsfq", func(sched.Config) (sched.Interface, error) {
		return NewHSFQ(), nil
	})
}
