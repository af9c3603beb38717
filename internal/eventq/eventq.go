// Package eventq implements the discrete-event core used by the packet
// network simulator: a time-ordered queue of callbacks with a simulated
// clock. Events scheduled for the same instant fire in the order they were
// scheduled, which keeps simulations deterministic.
//
// Queue is one type with two phases, chosen by what the queue observes
// about itself:
//
//   - heap phase. A new Queue is a typed 4-ary min-heap ordered by
//     (time, seq), called ready. Every push goes there and every pop takes
//     its minimum: O(log pending), no per-queue arrays, nothing to advance.
//     The paper's experiments — under 20 pending events per queue — never
//     leave this phase.
//   - wheel phase. When the pending count first passes promoteAt the queue
//     allocates a hierarchical timing wheel (Varghese & Lauck) behind one
//     pointer, sets its cursor to the heap minimum's tick and re-places
//     every node. Promotion is one-way. From then on ready holds only the
//     events whose tick the cursor has reached, and the rest live in:
//     wheel — 4 levels of 256 power-of-two buckets each (8 bits per level,
//     2^32 ticks of total span at the default 1µs resolution ≈ 71 minutes
//     of simulated time). Scheduling hashes the event's absolute tick into
//     the lowest level whose span covers its distance from the cursor: an
//     O(1) push onto an intrusive doubly-linked bucket list. Cancellation
//     is an O(1) unlink. Per-level occupancy bitmaps (256 bits) make
//     "next non-empty bucket" a handful of word scans, and of the buckets
//     the cursor crosses only the one it lands in can be occupied, so
//     advancing costs O(1) amortized per event cascaded however far apart
//     in time the events sit;
//     overflow — a 4-ary min-heap for events more than 2^32 ticks out,
//     draining into the wheel as the cursor approaches.
//
// Determinism argument. Every event carries a strictly increasing seq, and
// the float64→tick mapping t ↦ ⌊t/tick⌋ is monotone, so for any two
// pending events a, b: a.tick < b.tick ⇒ a.time ≤ b.time (sub-tick time
// differences always land in the same or a later tick). In the heap phase
// ready holds every pending event, so its (time, seq) minimum is trivially
// global. In the wheel phase the queue maintains the invariant that ready
// holds exactly the pending events with tick ≤ cursor while the wheel and
// overflow tiers hold only events with tick > cursor, and the cursor only
// advances to the minimum pending tick. Promotion establishes that
// invariant (the cursor is the minimum pending tick, and re-placing sends
// exactly the nodes at that tick back to ready), so the ready minimum is
// the global (time, seq) minimum in both phases and the pop order is that
// of a single (time, seq) heap bit for bit (pinned by FuzzEventQueue's
// sorted-slice model on fresh, promoted and promoting queues, the
// container/heap oracle, and the conformance replay digests).
package eventq

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	wheelBits     = 8
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelLevels   = 4
	wheelSpanBits = wheelBits * wheelLevels // ticks covered by all levels
	wheelWords    = wheelSlots / 64
)

// promoteAt is the pending count past which a queue leaves the heap phase
// for the wheel phase. Measured (sweep table in DESIGN.md §15): the heap's
// cost grows with log(pending) whatever the spacing of events, the wheel's
// is flat in pending and grows with the spacing; they cross near 128–256
// pending for events 1–10 ticks apart and only past a few thousand for
// events 1 ms apart. Anything in 64..1024 serves both the packet-level
// studies (≤ 20 pending) and the fabric-scale ones (≥ 2000).
const promoteAt = 256

// DefaultTick is the wheel resolution in simulated seconds. One tick is
// 1µs: fine enough that packet-scale events (ns–µs service times) rarely
// share a bucket spuriously, coarse enough that hour-scale simulations fit
// in the wheel's 2^32-tick span. Sub-tick ordering is exact regardless —
// the ready heap orders by the original float64 time.
const DefaultTick = 1e-6

// tier tags for node.level beyond the wheel levels 0..wheelLevels-1.
const (
	levelReady    int8 = -1 // in the ready heap
	levelOverflow int8 = -2 // in the overflow heap
	levelFree     int8 = -3 // on the free list (not pending)
)

// maxTick clamps the float→tick conversion so times near +Inf (rejected
// anyway) or absurdly far in the future cannot overflow uint64. Clamped
// events share a tick and are still ordered exactly by (time, seq).
const maxTick = uint64(1) << 62

// node carries one scheduled callback. Nodes are pooled on a free list and
// linked intrusively into wheel buckets, so steady-state scheduling does
// not allocate. fn is always non-nil; arg is the value it receives. Plain
// closures scheduled via At are dispatched through a trampoline that
// stores the closure itself in arg — func values are pointer-shaped, so
// this boxing never allocates.
type node struct {
	time float64
	seq  uint64
	fn   func(any)
	arg  any
	tick uint64 // ⌊time/resolution⌋; set at promotion and by wheel-phase pushes
	// prev/next link the node into its wheel bucket, or (next only) into
	// the free list.
	prev, next *node
	level      int8
	slot       int32
	idx        int32 // position while in the ready or overflow heap
}

// Handle identifies a scheduled event for cancellation. The zero Handle is
// valid and never cancels anything. Handles are safe to keep after the
// event fires or is cancelled: the embedded seq is compared against the
// node, so a stale Handle (event fired, cancelled, or node reused) simply
// makes Cancel return false.
type Handle struct {
	n   *node
	seq uint64
}

// Queue is a discrete-event queue. The zero value is ready to use.
type Queue struct {
	now float64
	seq uint64
	// steps counts executed events, for runaway detection in tests.
	steps uint64
	// pending is the exact number of scheduled-but-not-fired events across
	// all tiers; Cancel decrements it (Len must never count tombstones).
	pending int

	// tickInv is ticks per second: 1/DefaultTick, set at promotion.
	tickInv float64

	// ready is a (time, seq) 4-ary min-heap: every pending event in the
	// heap phase, the due events (tick ≤ cursor) in the wheel phase.
	ready []*node
	w     *wheel // nil in the heap phase

	free  *node // recycled nodes
	chunk uint8 // size of the last free-list refill (see alloc)
}

// wheel is the state a queue gains at promotion.
type wheel struct {
	// curTick is the wheel cursor. Invariant: ready holds ticks ≤ curTick,
	// buckets/over hold ticks > curTick. The cursor may run ahead of the
	// float clock now (PeekTime advances it eagerly); pushes landing at or
	// behind the cursor go straight to ready, which preserves order because
	// the cursor never passes the minimum pending tick.
	curTick uint64

	over []*node // (time, seq) 4-ary min-heap: events ≥ 2^32 ticks out

	buckets [wheelLevels][wheelSlots]*node
	occ     [wheelLevels][wheelWords]uint64 // per-level bucket occupancy bitmaps
	n       int                             // events resident in buckets
}

// Now returns the current simulated time in seconds.
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.pending }

// Steps returns the number of events executed so far.
func (q *Queue) Steps() uint64 { return q.steps }

// runNullary adapts a plain closure to the internal func(any) calling
// convention.
func runNullary(arg any) { arg.(func())() }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a simulation bug (causality violation). So do NaN and
// +Inf times: "never" is not a schedulable instant — callers must treat a
// server.Never completion as a stall and handle it themselves rather than
// park an event at infinity that Run could never reach.
func (q *Queue) At(t float64, fn func()) { q.push(t, runNullary, fn) }

// AtCall schedules fn(arg) to run at absolute time t. It is the
// allocation-free fast path: unlike At, which usually costs one closure
// allocation at the call site to capture state, AtCall carries the state in
// arg (typically a pointer, which boxes without allocating), so hot loops
// — per-frame link completions, source emissions — schedule events with
// zero allocations.
func (q *Queue) AtCall(t float64, fn func(any), arg any) {
	if fn == nil {
		panic("eventq: AtCall requires a callback")
	}
	q.push(t, fn, arg)
}

// After schedules fn to run d seconds from now.
func (q *Queue) After(d float64, fn func()) { q.At(q.now+d, fn) }

// AfterCall schedules fn(arg) to run d seconds from now (see AtCall).
func (q *Queue) AfterCall(d float64, fn func(any), arg any) { q.AtCall(q.now+d, fn, arg) }

// Schedule is AtCall returning a Handle for O(1) cancellation.
func (q *Queue) Schedule(t float64, fn func(any), arg any) Handle {
	if fn == nil {
		panic("eventq: Schedule requires a callback")
	}
	return q.push(t, fn, arg)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending: a Handle whose event already fired, was already cancelled, or is
// the zero Handle returns false. Cancellation is O(1) for wheel-resident
// events (an intrusive unlink) and O(log n) within the ready and overflow
// heaps.
func (q *Queue) Cancel(h Handle) bool {
	n := h.n
	if n == nil || n.seq != h.seq || n.level == levelFree {
		return false
	}
	switch n.level {
	case levelReady:
		heapRemove(&q.ready, int(n.idx))
	case levelOverflow:
		heapRemove(&q.w.over, int(n.idx))
	default:
		q.unlinkWheel(n)
	}
	q.pending--
	q.release(n)
	return true
}

func (q *Queue) push(t float64, fn func(any), arg any) Handle {
	if t < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, q.now))
	}
	if math.IsNaN(t) {
		panic("eventq: scheduling at NaN")
	}
	if math.IsInf(t, 1) {
		panic("eventq: scheduling at +Inf; an event at 'never' would wedge Run — treat server.Never as a stall instead of scheduling it")
	}
	q.seq++
	n := q.alloc()
	n.time = t
	n.seq = q.seq
	n.fn = fn
	n.arg = arg
	q.pending++
	if q.w != nil {
		n.tick = q.tickOf(t)
		q.place(n)
	} else {
		heapPush(&q.ready, n, levelReady)
		if q.pending > promoteAt {
			q.promote()
		}
	}
	return Handle{n: n, seq: n.seq}
}

// promote moves the queue from the heap phase to the wheel phase: allocate
// the wheel, put the cursor on the minimum pending tick, and re-place every
// node. Nodes at the cursor's tick return to ready (compacted in place —
// place appends at or before the index being read), so afterwards ready
// holds exactly the ticks ≤ cursor, which is the wheel-phase invariant.
func (q *Queue) promote() {
	if q.tickInv == 0 {
		q.tickInv = 1 / DefaultTick
	}
	q.w = &wheel{curTick: q.tickOf(q.ready[0].time)}
	old := q.ready
	q.ready = old[:0]
	for _, n := range old {
		n.tick = q.tickOf(n.time)
		q.place(n)
	}
	for i := len(q.ready); i < len(old); i++ {
		old[i] = nil
	}
}

func (q *Queue) tickOf(t float64) uint64 {
	ft := t * q.tickInv
	if ft >= float64(maxTick) {
		return maxTick
	}
	return uint64(ft)
}

// place routes a node to the tier matching its tick: ready if due, the
// wheel level whose span covers its distance from the cursor, or overflow.
func (q *Queue) place(n *node) {
	w := q.w
	if n.tick <= w.curTick {
		heapPush(&q.ready, n, levelReady)
		return
	}
	delta := n.tick - w.curTick
	if delta>>wheelSpanBits != 0 {
		heapPush(&w.over, n, levelOverflow)
		return
	}
	level := (bits.Len64(delta) - 1) / wheelBits
	slot := int((n.tick >> (uint(level) * wheelBits)) & wheelMask)
	n.level = int8(level)
	n.slot = int32(slot)
	head := w.buckets[level][slot]
	n.prev = nil
	n.next = head
	if head != nil {
		head.prev = n
	}
	w.buckets[level][slot] = n
	w.occ[level][slot>>6] |= 1 << (uint(slot) & 63)
	w.n++
}

func (q *Queue) unlinkWheel(n *node) {
	w := q.w
	level, slot := int(n.level), int(n.slot)
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		w.buckets[level][slot] = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if w.buckets[level][slot] == nil {
		w.occ[level][slot>>6] &^= 1 << (uint(slot) & 63)
	}
	n.prev, n.next = nil, nil
	w.n--
}

// Free-list refills allocate nodes in chunks: 8 the first time, doubling
// up to 64. Nodes are never returned to the runtime, so chunking trades a
// little footprint for allocation counts that amortize like the old heap's
// slice doubling did — a queue scheduling N events costs about N/64
// allocations, not N — while a queue that only ever holds a handful of
// events (most simulations' links) takes well under 1 KB for them.
const (
	firstNodeChunk = 8
	maxNodeChunk   = 64
)

func (q *Queue) alloc() *node {
	if q.free == nil {
		n := firstNodeChunk
		if q.chunk > 0 {
			n = 2 * int(q.chunk)
			if n > maxNodeChunk {
				n = maxNodeChunk
			}
		}
		q.chunk = uint8(n)
		chunk := make([]node, n)
		for i := range chunk[:n-1] {
			chunk[i].next = &chunk[i+1]
		}
		q.free = &chunk[0]
	}
	n := q.free
	q.free = n.next
	n.next = nil
	return n
}

func (q *Queue) release(n *node) {
	// Keep n.seq: stale Handles compare against it until the node is
	// reused, and reuse bumps it via push's q.seq++ assignment.
	n.fn = nil
	n.arg = nil
	n.prev = nil
	n.level = levelFree
	n.next = q.free
	q.free = n
}

// ensureReady makes the earliest pending event the ready minimum. In the
// heap phase it already is. In the wheel phase the cursor advances until at
// least one event is due or the queue is empty; it only ever moves to the
// minimum pending tick, which is what keeps ready's minimum global.
func (q *Queue) ensureReady() {
	if len(q.ready) == 0 && q.w != nil {
		q.refill()
	}
}

func (q *Queue) refill() {
	w := q.w
	for len(q.ready) == 0 && (w.n > 0 || len(w.over) > 0) {
		// Drain overflow events that now fit the wheel span. (The overflow
		// heap is ordered by (time, seq); time→tick monotonicity makes its
		// top also the minimum tick.)
		for len(w.over) > 0 && (w.over[0].tick-w.curTick)>>wheelSpanBits == 0 {
			q.place(heapRemove(&w.over, 0))
		}
		if len(q.ready) > 0 || (w.n == 0 && len(w.over) == 0) {
			return
		}
		q.advance(w.nextBound())
	}
}

// nextBound returns a conservative lower bound > curTick on the minimum
// pending tick: the earliest start of a non-empty bucket across levels, or
// the overflow minimum. Advancing to it either makes some event due or
// cascades it to a lower level, so refill terminates in a few rounds.
func (w *wheel) nextBound() uint64 {
	bound := uint64(math.MaxUint64)
	for l := 0; l < wheelLevels; l++ {
		shift := uint(l) * wheelBits
		cur := int((w.curTick >> shift) & wheelMask)
		if d, ok := nextSlotDist(&w.occ[l], cur); ok {
			if b := ((w.curTick >> shift) + uint64(d)) << shift; b < bound {
				bound = b
			}
		}
	}
	if len(w.over) > 0 && w.over[0].tick < bound {
		bound = w.over[0].tick
	}
	return bound
}

// nextSlotDist scans a 256-bit occupancy bitmap for the first set bit
// after slot cur (cyclically), returning its distance in [1, 256].
func nextSlotDist(occ *[wheelWords]uint64, cur int) (int, bool) {
	start := (cur + 1) & wheelMask
	for scanned := 0; scanned < wheelSlots; {
		i := (start + scanned) & wheelMask
		w := occ[i>>6] >> (uint(i) & 63)
		avail := 64 - (i & 63)
		if rem := wheelSlots - scanned; avail > rem {
			avail = rem
		}
		if w != 0 {
			if tz := bits.TrailingZeros64(w); tz < avail {
				return scanned + tz + 1, true
			}
		}
		scanned += avail
	}
	return 0, false
}

// advance moves the cursor to newTick (> curTick, ≤ the minimum pending
// tick) and re-places the nodes of the buckets it enters: due nodes go to
// ready, the rest cascade to lower levels. Of the slots the cursor crosses
// at a level, (oldS, newS], only the last can be occupied, so that is the
// only one looked at and sparse time (events many ticks apart) advances as
// cheaply as dense time. Why: a node at level l was placed less than 256
// slots ahead of a cursor no later than this one and is still ahead of it,
// so s = tick>>shift lies in [oldS, oldS+256]; newTick ≤ tick gives
// s ≥ newS; and its slot index is s&255. A crossed slot before newS would
// need s < newS (or, when the cursor laps the level, s > oldS+256).
func (q *Queue) advance(newTick uint64) {
	w := q.w
	var moved *node
	for l := 0; l < wheelLevels; l++ {
		shift := uint(l) * wheelBits
		newS := newTick >> shift
		if w.curTick>>shift == newS {
			break // higher levels cannot differ either
		}
		if slot := int(newS & wheelMask); w.buckets[l][slot] != nil {
			moved = w.spliceBucket(l, slot, moved)
		}
	}
	w.curTick = newTick
	for moved != nil {
		n := moved
		moved = n.next
		n.next = nil
		q.place(n)
	}
}

// spliceBucket detaches bucket (l, slot) and prepends its nodes to chain.
func (w *wheel) spliceBucket(l, slot int, chain *node) *node {
	head := w.buckets[l][slot]
	w.buckets[l][slot] = nil
	w.occ[l][slot>>6] &^= 1 << (uint(slot) & 63)
	for head != nil {
		n := head
		head = head.next
		n.prev = nil
		n.next = chain
		chain = n
		w.n--
	}
	return chain
}

// PeekTime returns the time of the earliest pending event. ok is false if
// the queue is empty. Peeking may advance the wheel cursor (never the
// clock), which is invisible to callers.
func (q *Queue) PeekTime() (t float64, ok bool) {
	q.ensureReady()
	if len(q.ready) == 0 {
		return 0, false
	}
	return q.ready[0].time, true
}

// Step executes the earliest pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (q *Queue) Step() bool {
	q.ensureReady()
	if len(q.ready) == 0 {
		return false
	}
	n := heapRemove(&q.ready, 0)
	q.pending--
	q.now = n.time
	q.steps++
	fn, arg := n.fn, n.arg
	q.release(n)
	fn(arg)
	return true
}

// Run executes events until the queue is empty.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled exactly at t do run.
func (q *Queue) RunUntil(t float64) {
	for {
		et, ok := q.PeekTime()
		if !ok || et > t {
			break
		}
		q.Step()
	}
	if t > q.now {
		q.now = t
	}
}

// RunBefore executes events with time strictly < t, then advances the
// clock to t. It is the window primitive for conservative parallel
// execution (topo.Sharded): a domain may safely run every event before its
// lookahead horizon, and the horizon itself belongs to the next window.
func (q *Queue) RunBefore(t float64) {
	for {
		et, ok := q.PeekTime()
		if !ok || et >= t {
			break
		}
		q.Step()
	}
	if t > q.now {
		q.now = t
	}
}

// --- (time, seq) 4-ary heaps over *node for the ready/overflow tiers ---

func nodeBefore(a, b *node) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func heapPush(h *[]*node, n *node, level int8) {
	n.level = level
	*h = append(*h, n)
	heapSiftUp(*h, len(*h)-1)
}

// heapRemove removes and returns the node at index i, preserving heap
// order and idx bookkeeping.
func heapRemove(h *[]*node, i int) *node {
	s := *h
	n := s[i]
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		s[i].idx = int32(i)
	}
	s[last] = nil
	s = s[:last]
	*h = s
	if i < last {
		moved := s[i]
		heapSiftUp(s, i)
		if int(moved.idx) == i {
			heapSiftDown(s, i)
		}
	}
	return n
}

func heapSiftUp(h []*node, i int) {
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !nodeBefore(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = int32(i)
		i = parent
	}
	h[i] = n
	n.idx = int32(i)
}

func heapSiftDown(h []*node, i int) {
	n := h[i]
	sz := len(h)
	for {
		c := 4*i + 1
		if c >= sz {
			break
		}
		min := c
		end := c + 4
		if end > sz {
			end = sz
		}
		for j := c + 1; j < end; j++ {
			if nodeBefore(h[j], h[min]) {
				min = j
			}
		}
		if !nodeBefore(h[min], n) {
			break
		}
		h[i] = h[min]
		h[i].idx = int32(i)
		i = min
	}
	h[i] = n
	n.idx = int32(i)
}
