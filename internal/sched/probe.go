package sched

// Probe is the live observability hook of the scheduler path. A link (or
// any other component that drives a scheduler) invokes the probe around its
// Interface calls, so virtual-time evolution, per-flow backlog, and
// start/finish-tag assignment are observable without the conformance
// recorder's full replay cost.
//
// Contract:
//
//   - Probes OBSERVE: they must not mutate the packet and must not retain a
//     reference to it past the call. Links recycle packets through a
//     PacketPool immediately after OnDequeue returns, so a retained pointer
//     would be overwritten by a later packet.
//   - OnEnqueue fires after a successful Enqueue, with the packet carrying
//     whatever tags the scheduler stamped (VirtualStart/VirtualFinish/
//     Deadline). Rejected enqueues are reported through the link's drop
//     accounting, not the probe.
//   - OnDequeue fires after a successful Dequeue, before the packet is
//     handed to the capacity process (and before it is pooled).
//   - OnVirtualTime fires whenever the driver samples the scheduler's
//     system virtual time — after each enqueue and dequeue for schedulers
//     that implement VirtualTimer. Schedulers without a virtual clock
//     (FIFO, DRR, EDD, ...) produce no OnVirtualTime calls.
//
// A nil probe costs one branch per operation: the scheduler hot paths stay
// allocation-free and unprobed runs are bit-identical to pre-probe builds.
type Probe interface {
	OnEnqueue(now float64, p *Packet)
	OnDequeue(now float64, p *Packet)
	OnVirtualTime(now, v float64)
}

// VirtualTimer is implemented by schedulers that maintain a system virtual
// time v(t) (the fair-queuing family: SFQ, HSFQ, SCFQ, WFQ).
// Drivers use it to feed Probe.OnVirtualTime.
type VirtualTimer interface {
	V() float64
}

// NopProbe is an embeddable no-op Probe: embed it to implement only the
// callbacks a probe cares about.
type NopProbe struct{}

// OnEnqueue does nothing.
func (NopProbe) OnEnqueue(float64, *Packet) {}

// OnDequeue does nothing.
func (NopProbe) OnDequeue(float64, *Packet) {}

// OnVirtualTime does nothing.
func (NopProbe) OnVirtualTime(float64, float64) {}
