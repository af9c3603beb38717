package sim

import "repro/internal/stats"

// Read accessors that only tests use: the reference-monitor comparison
// (monitor_ref_test.go) and the packet-pool bound checks.

// EndToEndDelay returns creation-to-transmission delay samples of flow
// (detached for a flow the link has not served).
func (m *Monitor) EndToEndDelay(flow int) *stats.Sample { return &m.seen(flow).e2e }

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

// TotalBytes returns the bytes transmitted across all flows.
func (m *Monitor) TotalBytes() float64 { return m.totalBytes }

// MeanServiceRate returns total bytes over the observed span (the
// effective capacity the link delivered while active).
func (m *Monitor) MeanServiceRate() float64 {
	if !m.sawService || m.horizon <= m.firstStart {
		return 0
	}
	return m.totalBytes / (m.horizon - m.firstStart)
}

// PooledPackets returns the current free-list depth (for tests and
// observability): bounded by the peak number of simultaneously live
// packets, not by the number of packets ever sent.
func (l *Link) PooledPackets() int { return l.pool.Len() }
