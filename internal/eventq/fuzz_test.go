package eventq

import (
	"math"
	"testing"
)

// fuzzModel is the naive differential model: a sorted slice ordered by
// (time, seq) with O(n) insertion — obviously correct, hopelessly slow,
// and sharing no code with the queue.
type fuzzModel struct {
	evs []fuzzModelEvent
	now float64
	seq uint64
}

type fuzzModelEvent struct {
	time float64
	seq  uint64
	id   int
}

func (m *fuzzModel) schedule(t float64, id int) {
	m.seq++
	e := fuzzModelEvent{time: t, seq: m.seq, id: id}
	i := len(m.evs)
	for i > 0 {
		p := m.evs[i-1]
		if p.time < e.time || (p.time == e.time && p.seq < e.seq) {
			break
		}
		i--
	}
	m.evs = append(m.evs, fuzzModelEvent{})
	copy(m.evs[i+1:], m.evs[i:])
	m.evs[i] = e
}

func (m *fuzzModel) cancel(id int) bool {
	for i, e := range m.evs {
		if e.id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			return true
		}
	}
	return false
}

func (m *fuzzModel) step() (int, bool) {
	if len(m.evs) == 0 {
		return 0, false
	}
	e := m.evs[0]
	m.evs = m.evs[1:]
	m.now = e.time
	return e.id, true
}

// fuzzCrossingSeed is an input that starts on a fresh queue, schedules 300
// events at every scale (passing promoteAt on the way), then cancels,
// steps and runs windows through handles taken in the heap phase.
func fuzzCrossingSeed() []byte {
	in := []byte{0x00}
	for i := 0; i < 300; i++ {
		in = append(in, byte(i%4)<<4|byte(i%3), byte(i*37))
	}
	for i := 0; i < 60; i++ {
		in = append(in, 0x80|byte(i*7)&0x3f, 0xc0, 0x80|byte(i*11)&0x3f, 0xc1|byte(i%8)<<1)
	}
	return in
}

// FuzzEventQueue drives the queue and the naive sorted-slice model with
// the same op sequence decoded from the fuzz input — schedule at mixed
// scales (hitting every wheel level and the overflow tier), cancel by
// handle, single steps, and RunUntil windows — and requires identical
// fire order, clock, and pending counts throughout, with the tier
// invariants checked after every op. The first input byte picks the phase
// the queue starts in: even = fresh (a heap, promoting if the input pushes
// it past promoteAt), odd = already promoted.
func FuzzEventQueue(f *testing.F) {
	// Each op sequence once on a fresh queue, once on a promoted one.
	for _, phase := range []byte{0, 1} {
		for _, ops := range []string{
			"\x00\x10\x01\x02\x02\x00\x22\x03",
			"\x40\xff\xff\x80\x01\xc1\x05\x02\x02",
			"\x00\x01\x00\x01\x01\x00\x02\x03\x00\xfe\x03\x02",
		} {
			f.Add(append([]byte{phase}, ops...))
		}
	}
	f.Add(fuzzCrossingSeed())
	// Promoted, cursor stepped to tick 51 399 (slot 199 of level 0, 200 of
	// level 1), then events 100 and 25 000 ticks out: the slots each
	// advance crosses wrap 255→0 at that level and span occupancy words 3
	// and 0.
	f.Add([]byte("\x01\x10\x33\xc0\x01\x90\xc0\x00\x64\x10\x19\xc0\xc0\xc0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the op count: the sorted-slice model is O(n) per op by
		// design, and a megabyte input must not wedge the fuzz-smoke CI.
		if len(data) > 4096 {
			data = data[:4096]
		}
		q := new(Queue)
		if len(data) > 0 {
			if data[0]&1 == 1 {
				q = promotedQueue(t)
			}
			data = data[1:]
		}
		var m fuzzModel
		var fired, want []int
		rec := func(arg any) { fired = append(fired, arg.(int)) }

		// Outstanding handles, indexed in creation order. The model tracks
		// pending ids, so Cancel's return value is checked too.
		var handles []Handle
		var ids []int
		nextID := 0

		// Time scales per 2-bit selector: level 0 (µs), mid wheel (ms),
		// top of wheel (minutes), and overflow (> 2^32 µs).
		scales := [4]float64{1e-6, 1e-3, 60, 5000}

		checked := 0
		check := func(what string) {
			if q.Len() != len(m.evs) {
				t.Fatalf("%s: Len = %d, model has %d pending", what, q.Len(), len(m.evs))
			}
			if len(fired) != len(want) {
				t.Fatalf("%s: queue fired %d events, model fired %d", what, len(fired), len(want))
			}
			// Compare only events fired since the last check, keeping the
			// whole run linear in the fire count.
			for ; checked < len(fired); checked++ {
				if fired[checked] != want[checked] {
					t.Fatalf("%s: fire order diverges at %d: queue %d, model %d",
						what, checked, fired[checked], want[checked])
				}
			}
			checkTiers(t, q)
		}

		for i := 0; i < len(data); i++ {
			op := data[i]
			switch op >> 6 {
			case 0, 1: // schedule; low bits + next byte build the delay
				var lo byte
				if i+1 < len(data) {
					i++
					lo = data[i]
				}
				mag := float64(int(op&0x0f)<<8 | int(lo))
				d := mag * scales[(op>>4)&3]
				tt := q.Now() + d
				if math.IsInf(tt, 1) {
					continue
				}
				handles = append(handles, q.Schedule(tt, rec, nextID))
				ids = append(ids, nextID)
				m.schedule(tt, nextID)
				nextID++
			case 2: // cancel the (op mod outstanding)-th handle
				if len(handles) == 0 {
					continue
				}
				k := int(op&0x3f) % len(handles)
				gotOK := q.Cancel(handles[k])
				wantOK := m.cancel(ids[k])
				if gotOK != wantOK {
					t.Fatalf("Cancel(id %d) = %v, model says %v", ids[k], gotOK, wantOK)
				}
				handles = append(handles[:k], handles[k+1:]...)
				ids = append(ids[:k], ids[k+1:]...)
			case 3:
				if op&1 == 0 { // single step
					got := q.Step()
					id, stepped := m.step()
					if got != stepped {
						t.Fatalf("Step = %v, model says %v", got, stepped)
					}
					if stepped {
						want = append(want, id)
						if q.Now() != m.now {
							t.Fatalf("Now = %v, model says %v", q.Now(), m.now)
						}
					}
				} else { // advance a window
					horizon := q.Now() + float64(op&0x3e)*0.25
					q.RunUntil(horizon)
					for len(m.evs) > 0 && m.evs[0].time <= horizon {
						id, _ := m.step()
						want = append(want, id)
					}
					if horizon > m.now {
						m.now = horizon
					}
					if q.Now() != m.now {
						t.Fatalf("RunUntil(%v): Now = %v, model says %v", horizon, q.Now(), m.now)
					}
				}
			}
			check("mid-sequence")
		}

		// Drain both and compare the complete fire order.
		q.Run()
		for {
			id, ok := m.step()
			if !ok {
				break
			}
			want = append(want, id)
		}
		check("after drain")
	})
}
