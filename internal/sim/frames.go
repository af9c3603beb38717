package sim

import "repro/internal/eventq"

// FramePool is one source's free list of frames. A frame from the pool
// records the pool, and the pool records the event queue its source emits
// on: a Sink on that same queue returns the frame once it has counted it,
// and the source's next emission takes it back. A frame that ends anywhere
// else — a link drop, a consumer that discards it, a sink
// of another topo.Sharded domain — is left to the garbage collector, so a
// pool is only ever touched by the goroutine that runs its queue.
//
// The pool is not safe for concurrent use, like the event queue it belongs
// to.
type FramePool struct {
	q    *eventq.Queue
	free []*Frame
}

// NewFramePool returns an empty pool for a source that emits on q.
func NewFramePool(q *eventq.Queue) *FramePool { return &FramePool{q: q} }

// Get returns a frame owned by the pool, zero but for its owner: reused
// when one has come back, new otherwise.
func (p *FramePool) Get() *Frame {
	n := len(p.free)
	if n == 0 {
		return &Frame{pool: p}
	}
	f := p.free[n-1]
	p.free = p.free[:n-1]
	revive(f)
	return f
}

// put zeroes f, which must be the pool's, and files it for reuse.
func (p *FramePool) put(f *Frame) {
	checkLive(f, "released twice")
	*f = Frame{pool: p}
	poison(f)
	p.free = append(p.free, f)
}
