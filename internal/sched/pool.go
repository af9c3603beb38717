package sched

// PacketPool is a LIFO free list of Packets. The simulator allocates one
// Packet per frame on the link's enqueue path; with a pool, steady-state
// simulation allocates O(backlog peak) packets instead of O(packets sent).
//
// The pool is NOT safe for concurrent use: each link (each event-queue
// domain) owns its own pool, matching the single-threaded discrete-event
// model.
type PacketPool struct {
	free []*Packet
}

// Get returns a zeroed Packet, reusing a pooled one when available.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return p
	}
	return &Packet{}
}

// Put recycles p. The packet is zeroed immediately (dropping its Payload
// reference) so stale state can never leak into a later Get. The caller
// must hold the only live reference: returning a packet that a scheduler,
// trace, or hook still points at corrupts that holder when the packet is
// reused.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	*p = Packet{}
	pp.free = append(pp.free, p)
}

// Len returns the number of packets currently pooled (for tests and
// observability).
func (pp *PacketPool) Len() int { return len(pp.free) }

// PoolSafe is implemented by schedulers that keep NO reference to a packet
// after returning it from Dequeue (and none after a failed Enqueue). Links
// recycle packets through a PacketPool only when their scheduler reports
// pool safety; anything that retains packets — a tracing wrapper like the
// conformance recorder, say — simply does not implement the interface and
// the link falls back to per-packet allocation.
type PoolSafe interface {
	// PacketPoolSafe reports whether recycling dequeued packets is safe.
	// Composite schedulers answer for their current children, so callers
	// should sample it after the scheduler is fully wired.
	PacketPoolSafe() bool
}

// PoolSafeScheduler reports whether s declares packet recycling safe.
func PoolSafeScheduler(s Interface) bool {
	ps, ok := s.(PoolSafe)
	return ok && ps.PacketPoolSafe()
}

// PacketPoolSafe reports that DRR retains no dequeued packets: it pops its
// reference to a packet when Dequeue hands it out and mutates nothing on a
// failed Enqueue. (Ranked's declaration is in rank.go, FairAirport's in
// fairairport.go.)
func (s *DRR) PacketPoolSafe() bool { return true }
