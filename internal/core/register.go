package core

import (
	"repro/internal/hier"
	"repro/internal/sched"
)

// This file registers the paper's own disciplines with the shared scheduler
// registry, so consumers construct them by name next to the baselines:
//
//	s, err := sched.New("sfq-lowweight")
//
// Importing internal/core (directly or transitively) is what makes these
// names available; every registry consumer in this repository already does.
func init() {
	sched.Register("sfq", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(sched.RankSFQ(sched.TieFIFO), cfg)
	})
	// "sfq-lowweight" is SFQ under the Section 2.3 low-weight-first tie
	// rule.
	sched.Register("sfq-lowweight", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(sched.RankSFQ(sched.TieLowWeightFirst), cfg)
	})
	// "hsfq" is the hierarchical SFQ of Section 3: an SFQ root class, the
	// whole link, to which AddFlow attaches flows. Every interior class of
	// a deeper tree runs SFQ over its children as flows (hier.Spec
	// describes one; hier.Build builds it); because SFQ is fair whatever
	// the service a class receives, its bandwidth is split fairly among
	// its subclasses even as that allocation fluctuates (Example 3).
	sched.Register("hsfq", func(cfg sched.Config) (sched.Interface, error) {
		return hier.Build(&hier.Spec{Name: "sfq", Class: "root"}, cfg)
	})
}
