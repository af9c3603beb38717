package sim

// Read accessors that only tests use: the reference-monitor comparison
// (monitor_ref_test.go) and the packet-pool bound checks.

// TruncatedRecords returns how many service records the cap displaced (0
// for MonitorAll monitors).
func (m *Monitor) TruncatedRecords() int64 {
	if m.recordCap == 0 || m.logged <= int64(m.recordCap) {
		return 0
	}
	return m.logged - int64(m.recordCap)
}

// RecordCap returns the monitor's record bound (0 = unbounded).
func (m *Monitor) RecordCap() int { return m.recordCap }

// PooledPackets returns the current free-list depth (for tests and
// observability): bounded by the peak number of simultaneously live
// packets, not by the number of packets ever sent.
func (l *Link) PooledPackets() int { return l.pool.Len() }
