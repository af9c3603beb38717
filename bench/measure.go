package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// env is what one pass over a workload (untraced or traced) runs in.
type env struct {
	seed  int64
	short bool
	// brief makes a pass measure one block per instance: the passes a
	// traced run makes over the workloads it was not asked for.
	brief bool
	// dropLate lets an open-loop workload discard a window in which its
	// generator ran late; set for full untraced runs, which have windows to
	// spare and whose numbers are the ones compared.
	dropLate bool
	// tr is the tracer of a traced pass, nil otherwise. Workloads build the
	// same objects either way and decorate them when it is set.
	tr *tracer

	// inputs hashes every generated input of the pass's first instance (the
	// others generate the same ones again, as part of their set-up).
	inputs  hash.Hash64
	hashing bool
	q       quality
}

func newEnv(seed int64, short bool, tr *tracer) *env {
	return &env{seed: seed, short: short, tr: tr, inputs: fnv.New64a(), q: newQuality()}
}

// pick returns full, or small under -short.
func (e *env) pick(full, small int) int {
	if e.short {
		return small
	}
	return full
}

func (e *env) pickf(full, small float64) float64 {
	if e.short {
		return small
	}
	return full
}

// hashFloats folds generated inputs into the input hash.
func (e *env) hashFloats(xs ...float64) {
	if !e.hashing {
		return
	}
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		e.inputs.Write(b[:])
	}
}

func (e *env) hashInts(xs ...int) {
	for _, x := range xs {
		e.hashFloats(float64(x))
	}
}

// quality collects what the correctness checks and the workload-specific
// end-to-end figures are made of, over all instances of a pass.
type quality struct {
	// extraAttempted/extraFailed count checked items outside the timed
	// trials (golden comparisons, digests, conservation, theorem ratios).
	extraAttempted, extraFailed int64
	reasons                     []string

	fairRatio, delayRatio float64 // worst seen; NaN until reported
	shareMin              float64
	// waits and late are the light requests' waits and the open-loop
	// generator's lateness, in ns. Histograms, so that what the harness
	// keeps does not grow with the run and show up in mem_mb.
	waits, late hist
	exact       map[string]string
	layer       map[string]float64 // workload-side per-layer figures
}

func newQuality() quality {
	return quality{fairRatio: math.NaN(), delayRatio: math.NaN(), shareMin: math.NaN(),
		exact: make(map[string]string), layer: make(map[string]float64)}
}

// check counts one checked item and records why it failed.
func (q *quality) check(ok bool, format string, args ...any) {
	q.extraAttempted++
	if !ok {
		q.extraFailed++
		if len(q.reasons) < 20 {
			q.reasons = append(q.reasons, fmt.Sprintf(format, args...))
		}
	}
}

func worse(cur, v float64, higherIsWorse bool) float64 {
	if math.IsNaN(cur) || (higherIsWorse && v > cur) || (!higherIsWorse && v < cur) {
		return v
	}
	return cur
}

func (q *quality) reportFair(r float64)  { q.fairRatio = worse(q.fairRatio, r, true) }
func (q *quality) reportDelay(r float64) { q.delayRatio = worse(q.delayRatio, r, true) }
func (q *quality) reportShare(r float64) { q.shareMin = worse(q.shareMin, r, false) }

// instance is one set-up copy of a workload: built and warmed by
// workloadDef.setup, then timed trial by trial.
type instance interface {
	// trial runs one timed trial of fixed work and returns the operations
	// it attempted and how many of them failed.
	trial() (ops, failed int64)
	// close checks the end state and reports quality figures into the env.
	close()
}

// warmUp ends a set-up with n untimed trials: fixed work, so that set-up
// time follows the code's speed the way the timed trials do.
func warmUp(inst instance, n int) {
	for i := 0; i < n; i++ {
		inst.trial()
	}
}

// workloadDef describes one workload to the harness.
type workloadDef struct {
	name string
	why  string
	op   string
	// setup builds instance number i (inputs from env.seed), including its
	// warm-up trial; the harness times it as one sample of setup_s.
	setup func(e *env, i int) instance
	// minInstances is the least number of set-ups in a full run. Each is
	// followed by blocks of many trials, as many as its share of the time
	// allows and at least three — unless the workload is oneShot.
	minInstances int
	// oneShot marks a workload whose trial consumes its instance: one trial
	// per set-up, as many set-ups as the time allows, and — since such an
	// instance cannot warm up — the first one's trial is not measured.
	oneShot bool
	// layers derives the per-layer figures that come from the traced
	// workload's own spans and from its untraced reference pass (nil: none).
	layers func(e *env, ref, traced *measured, sum *traceSummary, out map[string]float64)
	// openLoop marks a workload whose rate is set by its arrival schedule,
	// not by how fast the host runs it; its times are reported as measured.
	// The closed-loop workloads' times are divided by the host-speed index.
	openLoop bool
}

// blockStat is one measured block: a quarter of a second of back-to-back
// trials (one trial, for a workload whose trial is longer than that). The
// block's time per operation is the median of its trials', which a host
// that steals the processor for a few milliseconds at a time cannot move
// until it disturbs half of them; the blocks are the run's samples.
type blockStat struct {
	nsPerOp float64 // median over the block's trials
	trials  int
	ops     int64
	failed  int64
	mallocs uint64
	// host is the host-speed index around the block (see hostRef): how much
	// slower than nominal the reference kernel ran just before and after.
	host float64
}

// blockTime is how long a block of short trials lasts; -short runs one trial
// per block.
const blockTime = 250 * time.Millisecond

// measured is the outcome of runInstances.
type measured struct {
	setupS    []float64
	setupHost []float64 // host-speed index around each set-up
	liveMB    []float64 // heap still live after each set-up
	blocks    []blockStat
	gcFrac    float64
}

// hostRef is the reference kernel behind the host-speed index: a pointer
// chase through one random cycle over hostRefBytes of memory, far more than
// a core's private cache, so that a step costs one trip to the shared cache
// or to memory — the resource other tenants of the host contend for. On the
// reference machine (a 2-vCPU KVM guest) the same binary's closed-loop
// throughput swings by 2.5x over minutes as the neighbours come and go, and
// this kernel swings with it; timing it around every block and dividing the
// swing out is what makes two runs comparable at all. The index is measured
// step time over hostRefNominalNs, so 1 is a quiet reference machine and 2
// is a host that currently runs memory-bound code at half speed.
var hostRef struct {
	once sync.Once
	next []uint32
	pos  uint32
}

const (
	hostRefBytes     = 16 << 20
	hostRefSteps     = 200_000
	hostRefNominalNs = 60.0
)

// hostIndex times the reference kernel once (about 12 ms; a tenth of that
// under -short).
func (e *env) hostIndex() float64 {
	return hostIndex(e.pick(hostRefSteps, hostRefSteps/10))
}

func hostIndex(steps int) float64 {
	h := &hostRef
	h.once.Do(func() {
		// Sattolo's shuffle turns the identity into one random cycle through
		// every slot, in place. The generator is fixed: the kernel must be
		// the same in every run.
		next := make([]uint32, hostRefBytes/4)
		for i := range next {
			next[i] = uint32(i)
		}
		x := uint64(0x9e3779b97f4a7c15)
		for i := len(next) - 1; i > 0; i-- {
			x = x*6364136223846793005 + 1442695040888963407
			j := int((x >> 33) % uint64(i))
			next[i], next[j] = next[j], next[i]
		}
		h.next = next
	})
	p := h.pos
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		p = h.next[p]
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(steps)
	h.pos = p
	return ns / hostRefNominalNs
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func gcCPU() (gc, total float64) {
	metrics.Read(gcSamples)
	if gcSamples[0].Value.Kind() != metrics.KindFloat64 || gcSamples[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

// runInstances sets the workload up at least minInst times and measures
// blocks of timed trials on each copy until budget is spent. Set-up (with its
// warm-up trial) and every trial are timed separately; allocation counters
// and the host-speed index are read between blocks, outside any timed
// region. keepWarmup measures a oneShot workload's first instance too (a
// traced pass has only one and wants its trial).
func runInstances(def *workloadDef, e *env, budget time.Duration, minInst int, keepWarmup bool) measured {
	var m measured
	start := time.Now()
	gc0, tot0 := gcCPU()
	perInst := budget / time.Duration(minInst)
	var ms runtime.MemStats
	var lastInst time.Duration
	var perTrial []float64
	// Past the minimum, a workload whose trial consumes its instance goes on
	// for as long as another whole instance fits in the budget.
	more := func(i int) bool {
		return i < minInst || def.oneShot && time.Since(start)+lastInst < budget
	}
	for i := 0; more(i); i++ {
		host := e.hostIndex()
		e.hashing = i == 0
		instStart := time.Now()
		inst := def.setup(e, i)
		m.setupS = append(m.setupS, time.Since(instStart).Seconds())
		after := e.hostIndex()
		m.setupHost = append(m.setupHost, (host+after)/2)
		host = after
		runtime.GC() // start every copy's trials from a collected heap
		runtime.ReadMemStats(&ms)
		m.liveMB = append(m.liveMB, (float64(ms.HeapAlloc)-hostRefBytes)/1e6) // less the harness's own array
		for b := 0; ; b++ {
			if def.oneShot && b >= 1 {
				break
			}
			if !def.oneShot && (b >= 3 || (e.short || e.brief) && b >= 1) && time.Since(instStart) >= perInst {
				break
			}
			blk := blockStat{}
			perTrial = perTrial[:0]
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			for blockStart := time.Now(); ; {
				t0 := time.Now()
				ops, failed := inst.trial()
				wall := time.Since(t0)
				blk.ops += ops
				blk.failed += failed
				if ops > 0 {
					perTrial = append(perTrial, float64(wall.Nanoseconds())/float64(ops))
				}
				if def.oneShot || e.short || time.Since(blockStart) >= blockTime {
					break
				}
			}
			runtime.ReadMemStats(&ms)
			before := host
			host = e.hostIndex()
			if def.oneShot && i == 0 && !keepWarmup || len(perTrial) == 0 {
				continue
			}
			blk.nsPerOp, blk.trials = median(perTrial), len(perTrial)
			blk.mallocs, blk.host = ms.Mallocs-mallocs, (before+host)/2
			m.blocks = append(m.blocks, blk)
		}
		inst.close()
		lastInst = time.Since(instStart)
	}
	gc1, tot1 := gcCPU()
	if tot1 > tot0 {
		m.gcFrac = (gc1 - gc0) / (tot1 - tot0)
	}
	return m
}

// nsPerOp returns each block's time per operation, as measured.
func (m *measured) nsPerOp() []float64 {
	out := make([]float64, len(m.blocks))
	for i, b := range m.blocks {
		out[i] = b.nsPerOp
	}
	return out
}

// hostIndexes returns each block's host-speed index.
func (m *measured) hostIndexes() []float64 {
	out := make([]float64, len(m.blocks))
	for i, b := range m.blocks {
		out[i] = b.host
	}
	return out
}

// trialCount is the number of timed trials behind the blocks.
func (m *measured) trialCount() int {
	n := 0
	for _, b := range m.blocks {
		n += b.trials
	}
	return n
}

func (m *measured) totals() (ops, failed int64, mallocs uint64) {
	for _, b := range m.blocks {
		ops += b.ops
		failed += b.failed
		mallocs += b.mallocs
	}
	return
}

// timeTrials runs fn (one trial of n operations) once to warm up and then
// reps times, returning the median ns per operation and the allocations per
// operation over the timed repetitions. It is the ladder's and the probes'
// measuring loop.
func timeTrials(reps, n int, fn func()) (nsOp, allocsOp float64) {
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		fn()
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return median(per), float64(ms.Mallocs-m0) / float64(reps*n)
}
