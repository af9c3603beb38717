package admission_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/admission"
	"repro/internal/qos"
	"repro/internal/server"
)

func newC(t *testing.T, c, delta float64) *admission.Controller {
	t.Helper()
	return admission.NewController(server.FCParams{C: c, Delta: delta})
}

func TestAdmitWithinCapacity(t *testing.T) {
	c := newC(t, 1000, 0)
	if err := c.Admit(admission.Request{Flow: 1, Rate: 600, LMax: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Admit(admission.Request{Flow: 2, Rate: 400, LMax: 100}); err != nil {
		t.Fatal(err)
	}
	if c.Reserved() != 1000 {
		t.Errorf("reserved=%v", c.Reserved())
	}
	err := c.Admit(admission.Request{Flow: 3, Rate: 1, LMax: 100})
	if !errors.Is(err, admission.ErrOverCommitted) {
		t.Errorf("over-commit error = %v", err)
	}
}

func TestReleaseRestoresCapacity(t *testing.T) {
	c := newC(t, 1000, 0)
	if err := c.Admit(admission.Request{Flow: 1, Rate: 1000, LMax: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if c.Reserved() != 0 {
		t.Errorf("reserved = %v after release", c.Reserved())
	}
	if err := c.Release(1); !errors.Is(err, admission.ErrUnknownFlow) {
		t.Errorf("double release = %v", err)
	}
	if err := c.Admit(admission.Request{Flow: 2, Rate: 1000, LMax: 100}); err != nil {
		t.Errorf("re-admission after release: %v", err)
	}
}

func TestDelayRequirement(t *testing.T) {
	c := newC(t, 1000, 0)
	// Flow 1 demands the Theorem-4 term stay under 0.35 s. Alone:
	// l/C = 0.1 s — fine.
	if err := c.Admit(admission.Request{Flow: 1, Rate: 100, LMax: 100, MaxDelay: 0.35}); err != nil {
		t.Fatal(err)
	}
	// Flow 2 with a 200 B l_max pushes flow 1's term to 0.3 s — still ok.
	if err := c.Admit(admission.Request{Flow: 2, Rate: 100, LMax: 200}); err != nil {
		t.Fatal(err)
	}
	d, err := c.DelayBound(1)
	if err != nil || math.Abs(d-0.3) > 1e-12 {
		t.Fatalf("DelayBound(1) = %v, %v", d, err)
	}
	// Flow 3 would push flow 1's term to 0.4 s > 0.35: must be refused
	// even though the *rate* fits — admission protects earlier promises.
	err = c.Admit(admission.Request{Flow: 3, Rate: 100, LMax: 100})
	if !errors.Is(err, admission.ErrDelayUnmet) {
		t.Errorf("delay-breaking admission = %v", err)
	}
	// A zero-l... smaller packet flow still fits.
	if err := c.Admit(admission.Request{Flow: 4, Rate: 100, LMax: 50}); err != nil {
		t.Errorf("small flow refused: %v", err)
	}
}

func TestOwnDelayRequirementChecked(t *testing.T) {
	c := newC(t, 1000, 0)
	if err := c.Admit(admission.Request{Flow: 1, Rate: 100, LMax: 900}); err != nil {
		t.Fatal(err)
	}
	// The candidate's own requirement fails: Σ_{n≠f}/C = 0.9 > 0.5.
	err := c.Admit(admission.Request{Flow: 2, Rate: 100, LMax: 100, MaxDelay: 0.5})
	if !errors.Is(err, admission.ErrDelayUnmet) {
		t.Errorf("self delay check = %v", err)
	}
}

func TestValidation(t *testing.T) {
	c := newC(t, 1000, 0)
	if err := c.Admit(admission.Request{Flow: 1, Rate: 0, LMax: 1}); err == nil {
		t.Error("zero rate admitted")
	}
	if err := c.Admit(admission.Request{Flow: 1, Rate: 1, LMax: 0}); err == nil {
		t.Error("zero lmax admitted")
	}
	if err := c.Admit(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Admit(admission.Request{Flow: 1, Rate: 1, LMax: 1}); err == nil {
		t.Error("duplicate admitted")
	}
	if _, err := c.DelayBound(99); !errors.Is(err, admission.ErrUnknownFlow) {
		t.Error("unknown DelayBound")
	}
}

func TestHierarchicalAdmission(t *testing.T) {
	// Admit a class at the link, derive its FC (eq 65 over the flows the
	// link admitted), admit sub-flows against the class's virtual server —
	// the eq (65) recursion as admission.
	linkFC := server.FCParams{C: 1000, Delta: 50}
	link := admission.NewController(linkFC)
	if err := link.Admit(admission.Request{Flow: 1, Rate: 400, LMax: 100}); err != nil {
		t.Fatal(err)
	}
	classFC := qos.SFQThroughputFC(linkFC, 400, 100, 100)
	if classFC.C != 400 {
		t.Fatalf("class rate = %v", classFC.C)
	}
	class := admission.NewController(classFC)
	if err := class.Admit(admission.Request{Flow: 10, Rate: 300, LMax: 100}); err != nil {
		t.Fatal(err)
	}
	if err := class.Admit(admission.Request{Flow: 11, Rate: 200, LMax: 100}); !errors.Is(err, admission.ErrOverCommitted) {
		t.Errorf("sub-class over-commit = %v", err)
	}
	// The sub-flow's delay bound includes the class's burst term.
	d, err := class.DelayBound(10)
	if err != nil {
		t.Fatal(err)
	}
	if d <= classFC.Delta/classFC.C {
		t.Errorf("nested delay bound %v should include the class burst %v", d, classFC.Delta/classFC.C)
	}
}

// TestAdmitEDD admits a Delay EDD class on a 1000 B/s server by the
// Theorem 7 schedulability test (eq 67) over the existing flows plus the
// candidate.
func TestAdmitEDD(t *testing.T) {
	existing := qos.EDDFlowSpec{Rate: 400, Length: 100, Deadline: 0.5}
	ok := qos.EDDFlowSpec{Rate: 300, Length: 100, Deadline: 0.5}
	if err := qos.EDDSchedulable([]qos.EDDFlowSpec{existing, ok}, 1000, 10); err != nil {
		t.Errorf("feasible EDD refused: %v", err)
	}
	bad := qos.EDDFlowSpec{Rate: 900, Length: 100, Deadline: 0.01}
	if err := qos.EDDSchedulable([]qos.EDDFlowSpec{existing, bad}, 1000, 10); err == nil {
		t.Error("infeasible EDD admitted")
	}
}

// Property: any sequence of admits/releases keeps 0 <= Reserved <= C and
// Admit never succeeds past capacity.
func TestQuickReservationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := admission.NewController(server.FCParams{C: 1000})
		admitted := map[int]float64{}
		id := 0
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				id++
				r := rng.Float64() * 400
				if r == 0 {
					continue
				}
				err := c.Admit(admission.Request{Flow: id, Rate: r, LMax: 100})
				if err == nil {
					admitted[id] = r
				} else if c.Reserved()+r <= 1000-1e-9 {
					return false // refused despite fitting
				}
			} else if len(admitted) > 0 {
				for fl := range admitted {
					if c.Release(fl) != nil {
						return false
					}
					delete(admitted, fl)
					break
				}
			}
			sum := 0.0
			for _, r := range admitted {
				sum += r
			}
			if diff := c.Reserved() - sum; diff > 1e-6 || diff < -1e-6 {
				return false
			}
			if c.Reserved() > 1000+1e-9 || c.Reserved() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
