package main

// This file is the benchmark's vocabulary: the workload names and the
// metric names, units, directions and regression bounds. BENCHMARK.json at
// the repository root repeats the workload list, endToEnd and perLayer for
// the driver; smoke_test.go fails when the two disagree.

// metricSpec describes one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may get
	// worse before -compare calls it a regression (0 for per-layer metrics,
	// which are never gated).
	Bound float64
	// Floor is an absolute change below which a difference is never a
	// regression, for metrics whose baseline is at or near zero.
	Floor float64
}

// endToEnd are the metrics every workload reports on every untraced run;
// they are the end_to_end list of BENCHMARK.json. Each is meaningful, and
// never zero, on all six workloads — the driver gates every one of them on
// every workload, so a metric only some workloads have cannot be here.
//
// setup_s and ops_per_s of the closed-loop workloads are host-speed
// corrected (see hostRef in measure.go); rawE2E carries them as measured.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "mem_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// rawE2E are the uncorrected times and the index that corrected them. They
// are printed and stored, never gated: on a shared host they move by tens
// of per cent between runs of the same binary.
var rawE2E = []metricSpec{
	{Name: "setup_s_raw", Unit: "s", Better: "lower"},
	{Name: "ops_per_s_raw", Unit: "1/s", Better: "higher"},
	{Name: "host_index", Unit: "ratio", Better: "lower"},
	// Open loop only: how late the generator ran in the windows that were
	// kept, and how many windows were dropped for running later than that.
	{Name: "late_p99_us", Unit: "us", Better: "lower"},
	{Name: "discarded_windows", Unit: "count", Better: "lower"},
}

// qualityE2E are end-to-end figures that only some workloads have, or that
// are zero when all is well. An untraced run prints them and stores them in
// its result file, -compare applies their bounds, and their limits
// (fair_ratio <= 1, delay_ratio <= 1, light wait p99 within its limit, no
// failed op) are correctness checks that fail the run. A traced run repeats
// them under the e2e. prefix so the driver's per-layer record carries them.
var qualityE2E = []metricSpec{
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, Floor: 0.01},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Floor: 0.001},
	{Name: "fair_ratio", Unit: "ratio", Better: "lower", Bound: 0.01},
	{Name: "delay_ratio", Unit: "ratio", Better: "lower", Bound: 0.01},
	{Name: "share_min", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "wait_p50_us", Unit: "us", Better: "lower", Bound: 0.12},
	{Name: "wait_p99_us", Unit: "us", Better: "lower", Bound: 0.12},
}

// perLayer are the metrics of single layers, reported by a traced run; they
// are the per_layer list of BENCHMARK.json. Those measured from the traced
// workload's spans read zero on a workload that never enters the layer
// through a seam the benchmark can decorate; the ladder and probe figures
// are workload-independent and measured in every traced run.
var perLayer = []metricSpec{
	// Discipline calls seen by the decorator in the traced workload.
	{Name: "sched.enq_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.deq_ns", Unit: "ns", Better: "lower"},
	// Ladder: one fixed load through each rung.
	{Name: "sched.allocs_op", Unit: "count", Better: "lower"},
	{Name: "sched.flowset_ns_op", Unit: "ns", Better: "lower"},
	{Name: "sched.scfq_ns_op", Unit: "ns", Better: "lower"},
	{Name: "sched.wfq_ns_op", Unit: "ns", Better: "lower"},
	{Name: "sched.drr_ns_op", Unit: "ns", Better: "lower"},
	{Name: "core.sfq_ns_op", Unit: "ns", Better: "lower"},
	{Name: "pifo.sfq_ns_op", Unit: "ns", Better: "lower"},
	{Name: "pifo.lstf_ns_op", Unit: "ns", Better: "lower"},
	{Name: "hier.depth1_ns_op", Unit: "ns", Better: "lower"},
	{Name: "hier.depth3_ns_op", Unit: "ns", Better: "lower"},
	{Name: "hier.composed_ns_op", Unit: "ns", Better: "lower"},
	{Name: "liveops.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "liveops.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "eventq.ns_op_p16", Unit: "ns", Better: "lower"},
	{Name: "eventq.ns_op_p4096", Unit: "ns", Better: "lower"},
	{Name: "eventq.ns_op_p1m", Unit: "ns", Better: "lower"},
	{Name: "eventq.cancel_ns_p4096", Unit: "ns", Better: "lower"},
	{Name: "eventq.new_bytes", Unit: "B", Better: "lower"},
	{Name: "eventq.steps", Unit: "count", Better: "lower"},
	{Name: "sim.link_ns_pkt", Unit: "ns", Better: "lower"},
	{Name: "sim.run_self_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.monitor_ns_pkt", Unit: "ns", Better: "lower"},
	{Name: "server.finish_ns", Unit: "ns", Better: "lower"},
	{Name: "source.poisson_ns_pkt", Unit: "ns", Better: "lower"},
	{Name: "topo.serial_ns_pkthop", Unit: "ns", Better: "lower"},
	{Name: "topo.w2_ns_pkthop", Unit: "ns", Better: "lower"},
	{Name: "topo.speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "topo.windows", Unit: "count", Better: "lower"},
	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.table1_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.fig1b_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.fig2b_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.fig3b_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.scfqdelay_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.delayshift_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.e2ebound_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.ebftail_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.genrate_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.ups-replay_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.liveops_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.rest_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.enq_batch_ns_req", Unit: "ns", Better: "lower"},
	{Name: "rt.deq_batch_ns_req", Unit: "ns", Better: "lower"},
	{Name: "rt.enq_self_ns_req", Unit: "ns", Better: "lower"},
	{Name: "rt.deq_self_ns_req", Unit: "ns", Better: "lower"},
	{Name: "rt.s1_ns_op", Unit: "ns", Better: "lower"},
	{Name: "rt.empty_deq_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rt.queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "rt.migrate_us", Unit: "us", Better: "lower"},
	{Name: "rt.addremove_us", Unit: "us", Better: "lower"},
	{Name: "rt.admit_ns_op", Unit: "ns", Better: "lower"},
	{Name: "rt.admit_submit_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.admit_finish_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.admit_cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.admit_depth_p99", Unit: "count", Better: "lower"},
	{Name: "obs.observer_ns_pkt", Unit: "ns", Better: "lower"},
	{Name: "bench.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	// Per-layer times are as measured; this is the host-speed index they
	// were measured under (1 = a quiet reference machine).
	{Name: "bench.host_index", Unit: "ratio", Better: "lower"},
	// The workload-specific end-to-end figures of the traced workload.
	{Name: "e2e.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "e2e.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "e2e.fair_ratio", Unit: "ratio", Better: "lower"},
	{Name: "e2e.delay_ratio", Unit: "ratio", Better: "lower"},
	{Name: "e2e.share_min", Unit: "ratio", Better: "higher"},
	{Name: "e2e.wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "e2e.wait_p99_us", Unit: "us", Better: "lower"},
}

// Limits and validity guards.
const (
	// lightWaitP99Limit is the latency limit of rt-open, on the 99th
	// percentile of the light requests' wait. Measured p99 is about 1 ms on
	// the reference machine (most of it the hypervisor stalling the driver
	// for 2-4 ms about once a second); served first-come-first-served
	// behind the heavy tenants' 128 waiting requests, every light request
	// would wait at least 6.4 ms. A request the admitter sheds or fails
	// misses the limit whatever it is.
	lightWaitP99Limit = 4e-3
	// An open-loop window is too late to be believed when more than
	// lateShareLimit of its sends leave more than lateLimit (one service
	// time) after they were due; such a window is discarded. The reference
	// machine stalls a spinning goroutine for 2-4 ms about once a second, so
	// 0.5-0.7 % of sends are this late in a good window.
	lateLimit      = 200e-6
	lateShareLimit = 0.03
	minTrials      = 9
)
