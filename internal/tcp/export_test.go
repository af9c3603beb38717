package tcp

// Accessors that only tests use.

// FinishedAt returns the time the final segment was acknowledged (0 if the
// transfer has not completed).
func (s *Sender) FinishedAt() float64 { return s.finishedAt }

// Cwnd returns the congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Received returns the count of data segments that arrived (with
// duplicates).
func (r *Receiver) Received() int64 { return r.received }

// Expected returns the next in-order sequence number (so Expected-1
// segments have been delivered in order).
func (r *Receiver) Expected() int64 { return r.expected }
