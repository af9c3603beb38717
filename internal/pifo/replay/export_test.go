package replay

// Exact reports a perfect replay: same service order and, packet by
// packet, identical start and end times.
func (c Comparison) Exact() bool {
	return c.OrderMatches == c.Total && c.MaxStartDiff == 0 && c.MaxEndDiff == 0
}
