package obs

import "repro/internal/sim"

// EventKind tags a trace-ring record.
type EventKind uint8

// Trace event kinds.
const (
	// EvArrive: the link accepted a frame into its queue.
	EvArrive EventKind = iota
	// EvDepart: a frame finished transmission.
	EvDepart
	// EvDrop: a frame was dropped, with Cause set.
	EvDrop
)

// String returns the CSV/JSON token of the kind.
func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvDepart:
		return "depart"
	case EvDrop:
		return "drop"
	}
	return "unknown"
}

// Event is one trace-ring record. Values are copied out of the frame at
// hook time — the ring never retains frame or packet pointers, so it
// composes with the link's packet pooling.
type Event struct {
	Time  float64 // event time (for departs: end of transmission)
	Kind  EventKind
	Flow  int
	Seq   int64
	Bytes float64
	Cause sim.DropCause // drops only, "" otherwise
}

// TraceRing is a fixed-capacity overwrite ring of link events: the bounded
// replacement for accumulating per-packet slices. It keeps the newest
// events and counts what it displaced, so a live dump is explicit about
// being a window, not a full history. The buffer is allocated once; Push
// never allocates. It is not safe for concurrent use — like the rest of the
// simulator it lives in a single event-queue domain.
type TraceRing struct {
	buf         []Event
	start       int // index of the oldest event
	n           int // events currently held
	overwritten int64
}

// DefaultTraceCap is the trace-ring capacity used when an Observer is
// built without WithTraceCap: 4096 events ≈ the tail of a run, at a fixed
// ~200 KiB.
const DefaultTraceCap = 4096

// NewTraceRing returns an empty trace ring holding up to capacity events.
// capacity must be positive.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		panic("obs: trace ring capacity must be positive")
	}
	return &TraceRing{buf: make([]Event, capacity)}
}

// Push appends e, overwriting the oldest event when full.
func (r *TraceRing) Push(e Event) {
	if r.n < len(r.buf) {
		i := r.start + r.n
		if i >= len(r.buf) {
			i -= len(r.buf)
		}
		r.buf[i] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start++
	if r.start == len(r.buf) {
		r.start = 0
	}
	r.overwritten++
}

// Len returns the number of events currently held.
func (r *TraceRing) Len() int { return r.n }

// Overwritten returns how many events Push has displaced since
// construction (or the last Reset).
func (r *TraceRing) Overwritten() int64 { return r.overwritten }

// At returns the i-th event in chronological order (0 = oldest held).
func (r *TraceRing) At(i int) Event {
	if i < 0 || i >= r.n {
		panic("obs: trace ring index out of range")
	}
	j := r.start + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

// Do calls fn on every held event in chronological order.
func (r *TraceRing) Do(fn func(Event)) {
	for i := 0; i < r.n; i++ {
		fn(r.At(i))
	}
}

// Reset empties the ring (capacity and backing array are kept).
func (r *TraceRing) Reset() {
	clear(r.buf)
	r.start, r.n, r.overwritten = 0, 0, 0
}
