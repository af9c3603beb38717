package experiments

import (
	"maps"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/fairness"
	"repro/internal/faults"
	"repro/internal/liveops"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/schedtest"
	"repro/internal/server"
	"repro/internal/sim"
)

// LiveOps demonstrates the two operational consequences of SFQ's
// server-agnostic analysis (Theorem 1 assumes nothing about the service
// process, so neither a process restart nor a weight change invalidates
// it):
//
// Scenario A (kill-and-restore): an SFQ link driven through a seeded
// chaos schedule is killed three times mid-run — its scheduler state is
// serialized into a liveops envelope, discarded, and restored into a
// fresh instance — and the resulting departure schedule is compared
// record-for-record against an uninterrupted baseline. The schedules are
// identical and the Theorem-1 fairness bound still holds.
//
// Scenario B (SLO control loop): a premium flow with a throughput SLO
// shares a link with a greedy background flow. A brownout drops the
// server to 0.4C for two seconds; at equal weights the premium flow's
// share falls below its SLO. A controller samples the link's obs.Snapshot
// every 250 ms and doubles the premium weight (via sched.Reconfigurable)
// whenever the measured EWMA rate is below the SLO, halving it back once
// the rate is comfortably above — all on the live link, mid-backlog.
func LiveOps(seed int64) *Result {
	r := newResult("liveops", "live operations — kill-and-restore failover and SLO-driven weight control")

	// The two scenarios are independent runs: each renders into its own
	// part, and the parts join in order.
	parts := [2]*Result{newResult("", ""), newResult("", "")}
	sweep(len(parts), func(i int) {
		if i == 0 {
			liveOpsFailover(parts[i], seed)
		} else {
			liveOpsSLOControl(parts[i])
		}
	})
	for _, p := range parts {
		r.Lines = append(r.Lines, p.Lines...)
		maps.Copy(r.Got, p.Got)
	}
	r.addf("theorem 1 holds for any server: a restored process and a re-weighted flow are both just servers")
	return r
}

// liveOpsFailover runs Scenario A.
func liveOpsFailover(r *Result, seed int64) {
	const c = 10.0 // pkt/s; packets are 1 "byte"
	rng := rand.New(rand.NewSource(seed))
	eps := faults.RandomEpisodes(rng, 5, 4.0, 0.6)

	var arr []schedtest.Arrival
	for i := 0; i < 20; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 1, Bytes: 1})
	}
	for i := 0; i < 60; i++ {
		arr = append(arr, schedtest.Arrival{At: 0, Flow: 2, Bytes: 1})
	}
	mk := func() sched.Interface {
		s := core.New()
		if err := s.AddFlow(1, 1); err != nil {
			panic(err)
		}
		if err := s.AddFlow(2, 3); err != nil {
			panic(err)
		}
		return s
	}
	base := schedtest.Drive(mk(), faults.NewModulated(server.NewConstantRate(c), eps), arr)

	fresh := func() sched.Interface { return core.New() } // restore target: unconfigured, same kind
	restoreAt := []uint64{17, 53, 111}
	var actions []liveops.Action
	for _, op := range restoreAt {
		actions = append(actions, liveops.Action{AtOp: op, Do: liveops.SnapshotRestore(fresh)})
	}
	sw := liveops.NewSwapper(mk(), actions...)
	got := schedtest.Drive(sw, faults.NewModulated(server.NewConstantRate(c), eps), arr)
	if sw.Err != nil {
		panic(sw.Err)
	}

	baseRecs, gotRecs := base.Mon.ServiceRecords(), got.Mon.ServiceRecords()
	identical := slices.Equal(baseRecs, gotRecs)
	h := fairness.MonitorUnfairness(got.Mon, 1, 2, 1, 3)
	bound := qos.SFQFairnessBound(1, 1, 1, 3)
	verdict := "DIVERGED"
	if identical {
		verdict = "identical"
	}
	r.addf("failover: %d kill-and-restores at ops %v under %d chaos episodes; schedule %s (%d departures)",
		len(restoreAt), restoreAt, len(eps), verdict, len(gotRecs))
	r.addf("failover: post-restore H(f,m) = %.3f  bound %.3f", h, bound)
	boolVal := 0.0
	if identical {
		boolVal = 1
	}
	r.set("failover_identical", boolVal)
	r.set("failover_departures", float64(len(gotRecs)))
	r.set("failover_H", h)
	r.set("failover_bound", bound)
}

// liveOpsSLOControl runs Scenario B, once without the controller and once
// with it, and reports per-half-second SLO compliance for the premium flow.
func liveOpsSLOControl(r *Result) {
	const (
		capBps  = 1e5 // nominal link rate, bytes/s
		slo     = 3e4 // premium flow target, bytes/s
		horizon = 6.0
		tick    = 0.25
		bucket  = 0.5
	)
	brownout := []faults.Episode{{Start: 2, Duration: 2, Factor: 0.4}}

	run := func(control bool) (violations int, minRate, finalW float64, adjustments int) {
		q := &eventq.Queue{}
		sink := sim.NewSink(q)
		s := core.New()
		if err := s.AddFlow(1, 1); err != nil {
			panic(err)
		}
		if err := s.AddFlow(2, 1); err != nil {
			panic(err)
		}
		proc := faults.NewModulated(server.NewConstantRate(capBps), brownout)
		link := sim.NewLink(q, "liveops", s, proc, sink)
		mon := sim.MonitorAll(link)
		o := obs.Observe(link)

		// Premium flow 1 offers 50 kB/s, background flow 2 offers 100 kB/s.
		for i := 0; i < int(horizon/0.01); i++ {
			at := float64(i) * 0.01
			q.At(at, func() {
				link.Deliver(&sim.Frame{Flow: 1, Bytes: 500, Created: q.Now()})
				link.Deliver(&sim.Frame{Flow: 2, Bytes: 1000, Created: q.Now()})
			})
		}

		w := 1.0
		if control {
			var reconf sched.Reconfigurable = s
			for t := tick; t < horizon; t += tick {
				q.At(t, func() {
					var rate float64
					for _, f := range o.Snapshot().Flows {
						if f.Flow == 1 {
							rate = f.RateBps
						}
					}
					switch {
					case rate < slo && w < 8:
						w *= 2
					case rate > 1.5*slo && w > 1:
						w /= 2
					default:
						return
					}
					if err := reconf.SetWeight(1, w); err != nil {
						panic(err)
					}
					adjustments++
				})
			}
		}
		q.Run()

		// Score flow 1's goodput in half-second buckets.
		served := make([]float64, int(horizon/bucket))
		for _, rec := range mon.ServiceRecords() {
			b := int(rec.End / bucket)
			if rec.Flow == 1 && b >= 0 && b < len(served) {
				served[b] += rec.Bytes
			}
		}
		minRate = capBps
		for _, bytes := range served {
			rate := bytes / bucket
			if rate < minRate {
				minRate = rate
			}
			if rate < slo {
				violations++
			}
		}
		return violations, minRate, w, adjustments
	}

	vStatic, minStatic, _, _ := run(false)
	vCtrl, minCtrl, finalW, adj := run(true)
	buckets := int(horizon / bucket)
	r.addf("SLO: flow 1 >= %.0f kB/s vs greedy peer; brownout to 0.4C during [2,4); %d half-second buckets scored", slo/1e3, buckets)
	r.addf("  static 1:1 weights: %d/%d buckets violated, worst rate %5.1f kB/s", vStatic, buckets, minStatic/1e3)
	r.addf("  obs-driven control: %d/%d buckets violated, worst rate %5.1f kB/s, %d weight changes, final w1 = %g",
		vCtrl, buckets, minCtrl/1e3, adj, finalW)
	r.set("slo_violations_static", float64(vStatic))
	r.set("slo_violations_control", float64(vCtrl))
	r.set("slo_min_rate_static", minStatic)
	r.set("slo_min_rate_control", minCtrl)
	r.set("slo_weight_changes", float64(adj))
	r.set("slo_final_weight", finalW)
}
