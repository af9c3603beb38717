// Package admission implements the admission-control procedures the
// paper's guarantees presuppose: Theorems 2–5 require Σ_n r_n <= C (or
// Σ_n R_n(v) <= C for variable-rate allocation), Theorem 7 requires the
// Delay EDD schedulability condition (eq 67), and hierarchical link
// sharing requires the same discipline at every class of the tree.
//
// A Controller tracks reservations against a capacity and refuses
// over-commitment; it also derives the SFQ delay and throughput bounds a
// newly admitted flow would receive, so callers can reject flows whose
// requirements cannot be met.
package admission

import (
	"errors"
	"fmt"

	"repro/internal/qos"
	"repro/internal/server"
)

// ErrOverCommitted is returned when a reservation would exceed capacity.
var ErrOverCommitted = errors.New("admission: capacity exceeded")

// ErrUnknownFlow is returned when releasing a flow that was not admitted.
var ErrUnknownFlow = errors.New("admission: unknown flow")

// ErrDelayUnmet is returned when the requested delay bound cannot be
// guaranteed.
var ErrDelayUnmet = errors.New("admission: delay requirement unmet")

// Request describes a flow asking for admission.
type Request struct {
	Flow int
	Rate float64 // reserved rate, bytes/s
	LMax float64 // maximum packet length, bytes

	// MaxDelay, if positive, is the largest acceptable Theorem-4 delay
	// term (excluding EAT): Σ_{n≠f} l_n^max/C + l^max/C + δ/C.
	MaxDelay float64
}

// Controller admits flows against one SFQ server.
type Controller struct {
	fc    server.FCParams
	flows map[int]Request
	used  float64
}

// NewController returns a controller for an FC server (δ = 0 gives a
// constant-rate link).
func NewController(fc server.FCParams) *Controller {
	if fc.C <= 0 {
		panic("admission: capacity must be positive")
	}
	return &Controller{fc: fc, flows: make(map[int]Request)}
}

// Reserved returns the sum of admitted rates.
func (c *Controller) Reserved() float64 { return c.used }

// sumLmax returns Σ l_n^max over admitted flows plus the candidate.
func (c *Controller) sumLmax(extra float64) float64 {
	s := extra
	for _, r := range c.flows {
		s += r.LMax
	}
	return s
}

// Admit checks Σ r <= C and, if requested, the flow's delay requirement —
// including the effect of the new flow's own l^max on flows admitted
// earlier (admitting a flow must not break promises already made).
func (c *Controller) Admit(req Request) error {
	if req.Rate <= 0 || req.LMax <= 0 {
		return fmt.Errorf("admission: invalid request %+v", req)
	}
	if _, dup := c.flows[req.Flow]; dup {
		return fmt.Errorf("admission: flow %d already admitted", req.Flow)
	}
	if c.used+req.Rate > c.fc.C+1e-9 {
		return fmt.Errorf("%w: %v + %v > %v", ErrOverCommitted, c.used, req.Rate, c.fc.C)
	}
	// Delay term for an arbitrary flow g if req were admitted:
	// Σ_{n≠g} l_n^max/C + l_g^max/C + δ/C.
	total := c.sumLmax(req.LMax)
	check := func(g Request) error {
		if g.MaxDelay <= 0 {
			return nil
		}
		d := qos.SFQDelayBound(c.fc, 0, g.LMax, total-g.LMax)
		if d > g.MaxDelay+1e-12 {
			return fmt.Errorf("%w: flow %d would see %v > %v", ErrDelayUnmet, g.Flow, d, g.MaxDelay)
		}
		return nil
	}
	if err := check(req); err != nil {
		return err
	}
	for _, g := range c.flows {
		if err := check(g); err != nil {
			return err
		}
	}
	c.flows[req.Flow] = req
	c.used += req.Rate
	return nil
}

// Release frees a reservation.
func (c *Controller) Release(flow int) error {
	r, ok := c.flows[flow]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	delete(c.flows, flow)
	c.used -= r.Rate
	if len(c.flows) == 0 {
		c.used = 0
	}
	return nil
}

// DelayBound returns the Theorem-4 delay term (excluding EAT) an admitted
// flow currently receives.
func (c *Controller) DelayBound(flow int) (float64, error) {
	r, ok := c.flows[flow]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	return qos.SFQDelayBound(c.fc, 0, r.LMax, c.sumLmax(0)-r.LMax), nil
}
