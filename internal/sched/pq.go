package sched

// TagHeap is a min-heap of packets ordered by a float64 key (a virtual tag,
// timestamp, or deadline) with FIFO tie-breaking among equal keys. Fair
// Airport's guaranteed service queue keys it by Virtual Clock stamps.
//
// The heap is hand-rolled over a flat []tagItem slice rather than built on
// container/heap: the heap.Interface methods take and return `any`, which
// boxes every 24-byte tagItem on push AND pop — two heap allocations per
// packet on the hottest path in the repository. The typed sift-up/sift-down
// below performs zero interface conversions and zero allocations beyond
// amortized slice growth. Because (key, serial) is a strict total
// order (serial is unique), the pop sequence is independent of the internal
// heap shape, so this rewrite is bit-for-bit schedule-compatible with the
// container/heap version (the property tests in pq_test.go cross-check it
// against a container/heap oracle).
type TagHeap struct {
	items  []tagItem
	serial uint64
}

type tagItem struct {
	key    float64
	serial uint64
	p      *Packet
}

// less orders by key, then insertion order.
func (a tagItem) less(b tagItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.serial < b.serial
}

// Len returns the number of queued packets.
func (q *TagHeap) Len() int { return len(q.items) }

// PushTag adds p with the given key, preserving FIFO order among equal keys.
func (q *TagHeap) PushTag(key float64, p *Packet) {
	q.serial++
	q.push(tagItem{key: key, serial: q.serial, p: p})
}

func (q *TagHeap) push(it tagItem) {
	q.items = append(q.items, it)
	// Sift up: move the hole from the new leaf toward the root until the
	// parent is no larger, then drop the item in.
	items := q.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
}

// PopMin removes and returns the minimum-key packet.
func (q *TagHeap) PopMin() *Packet {
	items := q.items
	p := items[0].p
	n := len(items) - 1
	it := items[n]
	items[n] = tagItem{} // release the *Packet reference
	q.items = items[:n]
	if n > 0 {
		q.siftDown(it)
	}
	return p
}

// siftDown re-inserts it starting from the root: the hole travels toward
// the leaves along the smaller child until both children are no smaller.
func (q *TagHeap) siftDown(it tagItem) {
	items := q.items
	n := len(items)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && items[r].less(items[l]) {
			min = r
		}
		if !items[min].less(it) {
			break
		}
		items[i] = items[min]
		i = min
	}
	items[i] = it
}
