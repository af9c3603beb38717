package sched

import "fmt"

// Priority composes child schedulers with strict, non-preemptive priority:
// Dequeue serves the highest-priority non-empty child. It is how the Fig 1
// experiment gives the VBR video source priority over the TCP flows — the
// residual capacity then looks like a variable-rate server to the lower
// level, which Section 2.3 shows can be modeled as an FC or EBF server.
type Priority struct {
	levels []Interface
	class  map[int]int // flow -> level index
	last   float64
}

// NewPriority returns a scheduler serving levels[0] first, then levels[1],
// and so on. At least one level is required.
//
// Deprecated: prefer New("priority", WithLevels(levels...)).
func NewPriority(levels ...Interface) *Priority {
	if len(levels) == 0 {
		panic("sched: Priority requires at least one level")
	}
	return &Priority{levels: levels, class: make(map[int]int)}
}

// AddFlowAt registers flow with the given weight at the given level, or
// re-weights it there if it is registered at that level already. A flow
// keeps its level: moving it to another one is refused.
func (s *Priority) AddFlowAt(level, flow int, weight float64) error {
	if level < 0 || level >= len(s.levels) {
		return fmt.Errorf("sched: priority level %d out of range", level)
	}
	if lvl, dup := s.class[flow]; dup && lvl != level {
		return fmt.Errorf("sched: flow %d already assigned priority level %d", flow, lvl)
	}
	if err := s.levels[level].AddFlow(flow, weight); err != nil {
		return err
	}
	s.class[flow] = level
	return nil
}

// AddFlow registers flow at the lowest priority level, or re-weights it at
// the level it already has (the Interface's upsert contract).
func (s *Priority) AddFlow(flow int, weight float64) error {
	level, ok := s.class[flow]
	if !ok {
		level = len(s.levels) - 1
	}
	return s.AddFlowAt(level, flow, weight)
}

// RemoveFlow unregisters an idle flow.
func (s *Priority) RemoveFlow(flow int) error {
	lvl, ok := s.class[flow]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	if err := s.levels[lvl].RemoveFlow(flow); err != nil {
		return err
	}
	delete(s.class, flow)
	return nil
}

// Enqueue routes p to its flow's level.
func (s *Priority) Enqueue(now float64, p *Packet) error {
	if now < s.last {
		return ErrTimeWentBack
	}
	s.last = now
	lvl, ok := s.class[p.Flow]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, p.Flow)
	}
	return s.levels[lvl].Enqueue(now, p)
}

// Dequeue serves the highest-priority backlogged level.
func (s *Priority) Dequeue(now float64) (*Packet, bool) {
	if now > s.last {
		s.last = now
	}
	for _, lvl := range s.levels {
		if lvl.Len() > 0 {
			return lvl.Dequeue(now)
		}
		// Give empty levels their busy-period-end notification so the
		// self-clocked schedulers reset their virtual time correctly.
		lvl.Dequeue(now)
	}
	return nil, false
}

// Len returns the total queued packets across levels.
func (s *Priority) Len() int {
	n := 0
	for _, lvl := range s.levels {
		n += lvl.Len()
	}
	return n
}

// QueuedBytes returns the bytes queued for flow.
func (s *Priority) QueuedBytes(flow int) float64 {
	lvl, ok := s.class[flow]
	if !ok {
		return 0
	}
	return s.levels[lvl].QueuedBytes(flow)
}
