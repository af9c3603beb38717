//go:build schedassert

package sched

import "fmt"

// pushAssert (debug build) remembers a FlowQ's most recently pushed item
// and panics if the flow's keys ever decrease — the invariant the
// flow-indexed heap relies on for correctness and for bit-identical pop
// order versus a packet-level heap.
type pushAssert struct{ last flowItem }

func (a *pushAssert) check(fq *FlowQ, it flowItem) {
	if fq.n > 0 && it.less(a.last) {
		panic(fmt.Sprintf(
			"sched: per-flow tag monotonicity violated: flow %d pushed (%v,%v,%d) after (%v,%v,%d)",
			fq.flow, it.key, it.sub, it.serial, a.last.key, a.last.sub, a.last.serial))
	}
	a.last = it
}

// reset forgets the last push: the next one starts a fresh chain.
func (a *pushAssert) reset() { a.last = flowItem{} }

// assertZeroChunk (debug build) panics unless every item of a chunk entering
// the pool is zero: ChunkPool.get hands chunks out without clearing them.
func assertZeroChunk(c *flowChunk) {
	for i, it := range c.items {
		if it != (flowItem{}) {
			panic(fmt.Sprintf("sched: pooled chunk slot %d not zeroed: %+v", i, it))
		}
	}
}
