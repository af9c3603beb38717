package conformance

import (
	"fmt"

	"repro/internal/liveops"
	"repro/internal/sched"
)

// InspectMidRun drives w through schedulers built by mk — once on a
// healthy link, once under plan — and calls inspect on the live scheduler
// at n operations spread evenly over each run, operations counted as
// liveops.Swapper counts them. It is how tests reach the mid-run states of
// the conformance workloads and chaos plans, snapshots in particular.
func InspectMidRun(mk func() sched.Interface, w Workload, plan FaultPlan, n int, inspect func(sched.Interface) error) error {
	runs := []struct {
		name string
		run  func(sched.Interface) error
	}{
		{"healthy", func(s sched.Interface) error { _, _, err := Run(s, w, nil); return err }},
		{"chaos", func(s sched.Interface) error { _, err := ChaosRun(s, w, plan); return err }},
	}
	for _, r := range runs {
		count := liveops.NewSwapper(mk())
		if err := r.run(count); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		var actions []liveops.Action
		for i := 1; i <= n; i++ {
			actions = append(actions, liveops.Action{
				AtOp: count.Ops() * uint64(i) / uint64(n+1),
				Do: func(_ float64, inner sched.Interface) (sched.Interface, error) {
					return inner, inspect(inner)
				},
			})
		}
		sw := liveops.NewSwapper(mk(), actions...)
		if err := r.run(sw); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if sw.Err != nil {
			return fmt.Errorf("%s: %w", r.name, sw.Err)
		}
	}
	return nil
}
