package pifo

import (
	_ "repro/internal/core" // registers "sfq", which "pifo-sfq" aliases
	"repro/internal/sched"
)

// init registers the UPS disciplines, and "pifo-sfq" — from when the
// tag-based family existed twice, hand-written and as rank functions — as
// a second name of "sfq": the benchmark ladder's rung, the registered
// hier:pifo-sfq(pifo-sfq,pifo-sfq) and the priority(fifo, pifo-sfq) trees
// of the Fig. 1 and extension experiments still name it. Importing this
// package — as cmd/sfqsim, cmd/experiments, and the conformance suite do —
// makes all of them constructible by name.
func init() {
	sched.Register("pifo-sfq", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewDiscipline("sfq", cfg)
	})
	sched.Register("lstf", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(LSTF(), cfg)
	})
	sched.Register("srpt", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(SRPT(), cfg)
	})
	sched.Register("fifo+", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(FIFOPlus(), cfg)
	})
}
