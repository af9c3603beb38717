package source

// Done reports whether the budget has been fully sent.
func (s *Bulk) Done() bool { return s.sent >= s.Budget }
