package pifo

import (
	_ "repro/internal/core" // registers "sfq", which "pifo-sfq" aliases
	"repro/internal/sched"
)

// init registers the UPS disciplines, and keeps the pifo-* names — from
// when the tag-based family existed twice, hand-written and as rank
// functions — as plain aliases of the one implementation (the benchmark
// ladder, a registered hier composition and the conformance tables resolve
// them). Importing this package — as cmd/sfqsim, cmd/experiments, and the
// conformance suite do — makes all of them constructible by name.
func init() {
	for _, name := range []string{"sfq", "scfq", "vclock", "edd", "wfq"} {
		sched.Register("pifo-"+name, func(cfg sched.Config) (sched.Interface, error) {
			return sched.NewDiscipline(name, cfg)
		})
	}
	sched.Register("lstf", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(LSTF(), cfg)
	})
	sched.Register("srpt", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(SRPT(), cfg)
	})
	sched.Register("fifo+", func(cfg sched.Config) (sched.Interface, error) {
		return sched.NewRanked(FIFOPlus(), cfg)
	}, "fifoplus")
}
