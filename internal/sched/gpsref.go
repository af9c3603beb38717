package sched

// GPSRef exposes the fluid GPS reference system behind WFQ/FQS (wfq.go) to
// other packages — concretely to internal/pifo, whose WFQ-as-rank-function
// must advance *the same* piecewise-linear virtual time with *the same*
// float arithmetic to stay bit-identical to the hand-written scheduler.
// The wrapper shares the weights map passed at construction, so AddFlow
// updates made through that map are visible to the fluid system exactly as
// they are for WFQ's own FlowTable.
type GPSRef struct {
	g *gps
}

// NewGPSRef returns a fluid GPS reference running at capacity c (bytes/s)
// over the given weights map. The map is retained, not copied: the caller
// keeps it in sync with its flow registry.
func NewGPSRef(c float64, weights map[int]float64) *GPSRef {
	return &GPSRef{g: newGPS(c, weights)}
}

// Advance moves the fluid system forward to real time now, processing
// fluid departures along the way.
func (r *GPSRef) Advance(now float64) { r.g.advance(now) }

// Arrive registers a fluid packet for flow with the given finish tag.
func (r *GPSRef) Arrive(flow int, finish float64) { r.g.arrive(flow, finish) }

// V returns the fluid virtual time as of the last Advance.
func (r *GPSRef) V() float64 { return r.g.v }
