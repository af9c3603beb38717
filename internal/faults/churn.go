package faults

import (
	"errors"
	"fmt"

	"repro/internal/eventq"
	"repro/internal/sim"
	"repro/internal/topo"
)

// FlowChurn repeatedly adds and removes one flow on a live network built
// with topo.Build: each cycle adds the flow, injects a burst, then retries
// RemoveFlow until the flow drains (topo refuses removal while frames are
// queued). It drives exactly the teardown paths a control plane would:
// scheduler RemoveFlow on every hop, link bookkeeping release, and
// stranded-frame drop accounting for frames still in flight at teardown.
type FlowChurn struct {
	Net  *topo.Sharded
	Spec topo.FlowSpec

	// Cycles is the number of add/remove rounds to run.
	Cycles int

	// Burst frames of BurstBytes each are injected right after every add.
	Burst      int
	BurstBytes float64

	// Dwell is the delay from add to the first removal attempt; Retry is
	// the back-off between refused removal attempts; Gap is the pause
	// between a successful removal and the next add.
	Dwell, Retry, Gap float64

	// Completed counts finished cycles; Retries counts refused removal
	// attempts (ErrFlowBusy); Err holds the first unexpected error, which
	// also stops the churn.
	Completed int
	Retries   int
	Err       error

	q *eventq.Queue // the queue Start was given: the network's
}

// Start schedules the first cycle at time `at` on q, the queue the
// network was built on. The churn then drives itself from q until Cycles
// cycles completed or an unexpected error occurred.
func (c *FlowChurn) Start(q *eventq.Queue, at float64) {
	if c.Net == nil || c.Cycles <= 0 || c.Burst <= 0 || c.BurstBytes <= 0 ||
		c.Dwell <= 0 || c.Retry <= 0 || c.Gap <= 0 {
		panic("faults: FlowChurn requires a network and positive cycle parameters")
	}
	c.q = q
	q.At(at, c.addAndBurst)
}

func (c *FlowChurn) addAndBurst() {
	if err := c.Net.AddFlow(c.Spec); err != nil {
		c.Err = fmt.Errorf("faults: churn add (cycle %d): %w", c.Completed, err)
		return
	}
	entry := c.Net.Entry(c.Spec.Flow)
	now := c.q.Now()
	for i := 0; i < c.Burst; i++ {
		entry.Deliver(&sim.Frame{Flow: c.Spec.Flow, Bytes: c.BurstBytes, Created: now})
	}
	c.q.After(c.Dwell, c.tryRemove)
}

func (c *FlowChurn) tryRemove() {
	err := c.Net.RemoveFlow(c.Spec.Flow)
	if errors.Is(err, topo.ErrFlowBusy) {
		c.Retries++
		c.q.After(c.Retry, c.tryRemove)
		return
	}
	if err != nil {
		c.Err = fmt.Errorf("faults: churn remove (cycle %d): %w", c.Completed, err)
		return
	}
	c.Completed++
	if c.Completed < c.Cycles {
		c.q.After(c.Gap, c.addAndBurst)
	}
}
