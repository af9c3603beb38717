package conformance

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rt"
	"repro/internal/sched"
)

// submitter presents an rt.Admitter as a scheduler: Enqueue is Submit with
// the packet's length as the request's cost, Len the requests waiting.
type submitter struct {
	sched.Interface
	a *rt.Admitter
}

func (s submitter) Enqueue(_ float64, p *sched.Packet) error {
	_, err := s.a.Submit(p.Flow, p.Length)
	return err
}
func (s submitter) Len() int { return s.a.Queued() }

// TestHostileNumbers: every registered discipline (off the registry, so a
// new name is covered when it registers), the reference SFQ they are
// compared with, and the runtime and admitter in front of them refuse NaN,
// ±Inf, zero and negative weights with ErrBadWeight and such lengths or
// costs with ErrBadPacket. NaN and +Inf are the two a bare `x <= 0` lets
// through, and one such tag in a flow heap breaks the order for every flow
// behind it. A refused registration registers nothing, a refused packet
// queues nothing, and the next valid packet is accepted and served.
func TestHostileNumbers(t *testing.T) {
	runtime := func(t *testing.T) *rt.Runtime {
		r, err := rt.New("sfq", sched.WithClock(&sched.ManualClock{}))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	targets := map[string]func(*testing.T) sched.Interface{
		"refsfq":     func(*testing.T) sched.Interface { return NewRefSFQ() },
		"rt.Runtime": func(t *testing.T) sched.Interface { return runtime(t).AsScheduler() },
		"rt.Admitter": func(t *testing.T) sched.Interface {
			r := runtime(t)
			a, err := rt.NewAdmitter(rt.AdmitterConfig{Runtime: r, Limit: 1})
			if err == nil {
				err = a.SetLimit(0) // no dispatch: what Submit queued stays countable
			}
			if err != nil {
				t.Fatal(err)
			}
			return submitter{r.AsScheduler(), a}
		},
	}
	for _, name := range sched.Names() {
		targets[name] = func(t *testing.T) sched.Interface { return newRegistered(t, name) }
	}
	for name, mk := range targets {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			t.Run(fmt.Sprintf("%s/%v", name, x), func(t *testing.T) {
				s := mk(t)
				if err := s.AddFlow(1, x); !errors.Is(err, sched.ErrBadWeight) {
					t.Errorf("AddFlow(1, %v) = %v, want ErrBadWeight", x, err)
				}
				if err := s.Enqueue(1, &sched.Packet{Flow: 1, Length: 50}); !errors.Is(err, sched.ErrUnknownFlow) {
					t.Errorf("Enqueue after the refused AddFlow = %v, want ErrUnknownFlow", err)
				}
				if err := s.AddFlow(1, 100); err != nil {
					t.Fatal(err)
				}
				if rc, ok := s.(sched.Reconfigurable); ok {
					if err := rc.SetWeight(1, x); !errors.Is(err, sched.ErrBadWeight) {
						t.Errorf("SetWeight(1, %v) = %v, want ErrBadWeight", x, err)
					}
				}
				if err := s.Enqueue(2, &sched.Packet{Flow: 1, Length: x}); !errors.Is(err, sched.ErrBadPacket) {
					t.Errorf("Enqueue(length %v) = %v, want ErrBadPacket", x, err)
				}
				if n := s.Len(); n != 0 {
					t.Fatalf("Len = %d after the refusals, want 0", n)
				}
				if err := s.Enqueue(3, &sched.Packet{Flow: 1, Length: 50}); err != nil {
					t.Fatalf("valid packet after the refusals: %v", err)
				}
				if n := s.Len(); n != 1 {
					t.Fatalf("Len = %d after one valid packet, want 1", n)
				}
				p, ok := s.Dequeue(4)
				if !ok || p.Flow != 1 || p.Length != 50 || !(p.VirtualFinish >= p.VirtualStart) {
					t.Fatalf("valid packet after the refusals served as %+v, %v", p, ok)
				}
			})
		}
	}
	// The same numbers as configuration: a DRR quantum or a fluid capacity
	// that is not finite and positive is refused with ErrBadConfig at
	// construction (a NaN quantum would make DRR's Dequeue spin forever), by
	// SetCapacity, and by the deprecated constructors' panic. A refused
	// instance is never driven.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		configs := map[string]sched.Option{
			"wfq/capacity":      sched.WithAssumedCapacity(x),
			"fqs/capacity":      sched.WithAssumedCapacity(x),
			"pifo-wfq/capacity": sched.WithAssumedCapacity(x),
		}
		if x != 0 { // a zero quantum means DefaultQuantum
			configs["drr/quantum"] = sched.WithQuantum(x)
			configs["hier:sfq(drr,edd)/quantum"] = sched.WithQuantum(x)
		}
		for row, opt := range configs {
			t.Run(fmt.Sprintf("config/%s=%v", row, x), func(t *testing.T) {
				name := row[:strings.LastIndex(row, "/")]
				if s, err := sched.New(name, opt); !errors.Is(err, sched.ErrBadConfig) {
					t.Fatalf("New(%q) = %T, %v; want ErrBadConfig", name, s, err)
				}
			})
		}
		t.Run(fmt.Sprintf("config/SetCapacity=%v", x), func(t *testing.T) {
			s := newRegistered(t, "wfq")
			if err := s.(sched.Reconfigurable).SetCapacity(x); !errors.Is(err, sched.ErrBadConfig) {
				t.Errorf("SetCapacity(%v) = %v, want ErrBadConfig", x, err)
			}
		})
		t.Run(fmt.Sprintf("config/deprecated=%v", x), func(t *testing.T) {
			for name, mk := range map[string]func(){
				"NewDRR": func() { sched.NewDRR(x) },
				"NewWFQ": func() { sched.NewWFQ(x) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s(%v) did not panic", name, x)
						}
					}()
					mk()
				}()
			}
		})
	}
}
