package obs

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Delay histogram layout: fixed log-spaced buckets shared by every flow
// histogram, so snapshots from different links and runs line up
// column-for-column. Bucket 0 catches [0, HistMinDelay); bucket i covers
// [HistMinDelay·2^(i−1), HistMinDelay·2^i); the last bucket is open-ended.
// 1 µs · 2^38 ≈ 76 h, far past any simulated horizon, so the overflow
// bucket stays empty in practice.
const (
	// HistBuckets is the fixed bucket count of every delay histogram.
	HistBuckets = 40
	// HistMinDelay is the upper bound of the first bucket, in seconds.
	HistMinDelay = 1e-6
)

// Histogram is a fixed-size log-spaced histogram. The zero value is an
// empty histogram; Observe never allocates.
type Histogram struct {
	counts   [HistBuckets]int64
	n        int64
	sum      float64
	min, max float64
}

// Observe records one value (negative values clamp into bucket 0).
func (h *Histogram) Observe(v float64) {
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// histBucket maps a value to its bucket index. Powers of two scale
// exactly in float64, so boundary values land deterministically.
func histBucket(v float64) int {
	if v < HistMinDelay {
		return 0
	}
	i := int(math.Log2(v/HistMinDelay)) + 1
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// HistBucketBounds returns bucket i's half-open interval [lo, hi).
// Values at or above the last bucket's hi clamp into it (kept finite —
// rather than +Inf — so snapshots stay JSON-encodable).
func HistBucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		lo = 0
	} else {
		lo = HistMinDelay * math.Pow(2, float64(i-1))
	}
	hi = HistMinDelay * math.Pow(2, float64(i))
	return lo, hi
}

// snapshot returns the histogram's immutable export form.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.n, Sum: h.sum}
	if h.n > 0 {
		s.Min, s.Max = h.min, h.max
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := HistBucketBounds(i)
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, N: c})
	}
	return s
}

// HistBucket is one non-empty bucket of an exported histogram.
type HistBucket struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	N  int64   `json:"n"`
}

// HistSnapshot is the immutable export form of a Histogram: only
// non-empty buckets, plus exact count/sum/min/max.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// rateEWMA is the exponential rate estimator of Stoica's CSFQ (also used
// by the paper's measurement-based admission control literature):
//
//	r_new = (1 − e^(−T/K)) · l/T + e^(−T/K) · r_old
//
// where l is the bytes served since the previous estimate, T the gap
// between them, and K the averaging window. Unlike a per-interval sample
// mean, the exponential form is insensitive to the packet interarrival
// pattern within the window. Same-instant departures accumulate into l
// and fold at the next positive gap, so the estimator never divides by a
// zero interval.
type rateEWMA struct {
	k       float64 // averaging window K, seconds
	rate    float64 // bytes/second
	lastT   float64
	acc     float64 // bytes awaiting a positive time gap
	started bool
}

func (e *rateEWMA) observe(t, bytes float64) {
	if !e.started {
		e.started = true
		e.lastT = t
		e.acc = bytes
		return
	}
	e.acc += bytes
	dt := t - e.lastT
	if dt <= 0 {
		return
	}
	w := math.Exp(-dt / e.k)
	e.rate = (1-w)*(e.acc/dt) + w*e.rate
	e.lastT = t
	e.acc = 0
}

// flowStats is the mutable per-flow accumulator behind FlowSnapshot.
type flowStats struct {
	arrivedPkts  int64
	arrivedBytes float64
	servedPkts   int64
	servedBytes  float64
	drops        map[sim.DropCause]int64
	rate         rateEWMA
	delay        Histogram
	hwmBytes     float64 // high-water mark of this flow's queued bytes
}

// FlowSnapshot is the immutable per-flow metrics export.
type FlowSnapshot struct {
	Flow         int              `json:"flow"`
	ArrivedPkts  int64            `json:"arrived_pkts"`
	ArrivedBytes float64          `json:"arrived_bytes"`
	ServedPkts   int64            `json:"served_pkts"`
	ServedBytes  float64          `json:"served_bytes"`
	DroppedPkts  int64            `json:"dropped_pkts"`
	Drops        map[string]int64 `json:"drops,omitempty"` // by DropCause
	RateBps      float64          `json:"rate_Bps"`        // EWMA throughput, bytes/s
	HWMBytes     float64          `json:"hwm_bytes"`       // peak queued bytes
	Delay        HistSnapshot     `json:"delay"`           // link arrival → end of tx, seconds
}

// Snapshot is the immutable per-link metrics export: every counter and
// gauge an Observer maintains, deep-copied at a single instant. Flows are
// sorted by id and drop maps are keyed by cause string, so the
// encoding/json output is byte-deterministic for a deterministic run.
type Snapshot struct {
	Link      string  `json:"link"`
	Now       float64 `json:"now"` // time of the last observed event
	Delivered int64   `json:"delivered"`
	Dropped   int64   `json:"dropped"`

	Drops map[string]int64 `json:"drops,omitempty"` // by DropCause

	// Queue-depth high-water marks, sampled at each accepted enqueue.
	HWMFrames int     `json:"hwm_frames"`
	HWMBytes  float64 `json:"hwm_bytes"`

	// Virtual-time gauge (schedulers implementing sched.VirtualTimer).
	VT        float64 `json:"vt"`
	VTSamples int64   `json:"vt_samples"`

	// Probe-side operation counters — equal the link's own counters in a
	// correctly wired run, which the tests assert.
	ProbeEnqueues int64 `json:"probe_enqueues"`
	ProbeDequeues int64 `json:"probe_dequeues"`

	// Trace-ring accounting: events retained and displaced (the dump is a
	// window, not a history, once TraceDropped > 0).
	TraceLen     int   `json:"trace_len"`
	TraceDropped int64 `json:"trace_dropped"`

	Flows []FlowSnapshot `json:"flows"`
}

// snapshotFlows builds the sorted immutable flow list.
func snapshotFlows(flows map[int]*flowStats) []FlowSnapshot {
	ids := make([]int, 0, len(flows))
	for id := range flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]FlowSnapshot, 0, len(ids))
	for _, id := range ids {
		fs := flows[id]
		snap := FlowSnapshot{
			Flow:         id,
			ArrivedPkts:  fs.arrivedPkts,
			ArrivedBytes: fs.arrivedBytes,
			ServedPkts:   fs.servedPkts,
			ServedBytes:  fs.servedBytes,
			RateBps:      fs.rate.rate,
			HWMBytes:     fs.hwmBytes,
			Delay:        fs.delay.snapshot(),
		}
		for c, n := range fs.drops {
			if snap.Drops == nil {
				snap.Drops = make(map[string]int64, len(fs.drops))
			}
			snap.Drops[string(c)] = n
			snap.DroppedPkts += n
		}
		out = append(out, snap)
	}
	return out
}
