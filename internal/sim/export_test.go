package sim

// Read accessors that only tests use: the packet-pool bound checks.

// PooledPackets returns the current free-list depth (for tests and
// observability): bounded by the peak number of simultaneously live
// packets, not by the number of packets ever sent.
func (l *Link) PooledPackets() int { return l.pool.Len() }
