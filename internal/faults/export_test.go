package faults

import "repro/internal/sim"

// Lossy counters that only tests read; the chaos audit reads DropsByFlow
// and DropsByCause.

// Delivered returns the frames passed through intact.
func (l *Lossy) Delivered() int64 { return l.delivered }

// Drops returns the total injected drops.
func (l *Lossy) Drops() int64 { return l.drops }

// DropsFor returns the injected drops recorded under one cause.
func (l *Lossy) DropsFor(cause sim.DropCause) int64 { return l.dropsCause[cause] }
