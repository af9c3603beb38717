package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// encoding/json is the reference the state codec is held to: the state
// structs keep their json tags so that json.Marshal of a captured state
// writes the bytes AppendState must write, and json.Unmarshal decodes what
// the codec must decode. Only tests import it.

// stateJSON is encoding/json's rendering of the state s captures.
func stateJSON(s Snapshotter) ([]byte, error) {
	if e, ok := s.(EDD); ok {
		s = e.Ranked
	}
	switch x := s.(type) {
	case *Ranked:
		return json.Marshal(x.captureState())
	case *DRR:
		return json.Marshal(x.captureState())
	case *FairAirport:
		return json.Marshal(x.captureState())
	}
	return nil, fmt.Errorf("no encoding/json reference for %T", s)
}

// decodeBoth decodes data as the state of s's type with the codec and
// with encoding/json.
func decodeBoth(s Snapshotter, data []byte) (codec, std any, codecErr, stdErr error) {
	switch s.(type) {
	case *Ranked, EDD:
		var a, b rankedState
		codecErr, stdErr = decodeState(data, &a, (*rankedState).codec), json.Unmarshal(data, &b)
		return a, b, codecErr, stdErr
	case *DRR:
		var a, b drrState
		codecErr, stdErr = decodeState(data, &a, (*drrState).codec), json.Unmarshal(data, &b)
		return a, b, codecErr, stdErr
	case *FairAirport:
		var a, b faState
		codecErr, stdErr = decodeState(data, &a, (*faState).codec), json.Unmarshal(data, &b)
		return a, b, codecErr, stdErr
	}
	err := fmt.Errorf("no state codec for %T", s)
	return nil, nil, err, err
}

// CheckStateCodec holds data, the AppendState bytes of s, to encoding/json
// both ways: json.Marshal of the state s captures writes exactly data, and
// CheckStateDecode holds. With the members of every object reversed, the
// codec reads data through its fallback to what encoding/json reads.
func CheckStateCodec(s Snapshotter, data []byte) error {
	want, err := stateJSON(s)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("%s: codec wrote\n%s\nencoding/json writes\n%s", s.StateKind(), data, want)
	}
	if err := CheckStateDecode(s, data); err != nil {
		return err
	}
	rev, err := reverseMembers(data)
	if err != nil {
		return err
	}
	codec, std, codecErr, stdErr := decodeBoth(s, rev)
	if codecErr != nil || stdErr != nil || !reflect.DeepEqual(codec, std) {
		return fmt.Errorf("%s: members reversed, codec decoded\n%+v (%v)\nencoding/json decoded\n%+v (%v)", s.StateKind(), codec, codecErr, std, stdErr)
	}
	return nil
}

// reverseMembers returns the JSON document data with the members of every
// object in reverse order.
func reverseMembers(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var rev func() ([]byte, error)
	rev = func() ([]byte, error) {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		d, ok := tok.(json.Delim)
		if !ok {
			if n, ok := tok.(json.Number); ok {
				return []byte(n), nil
			}
			return json.Marshal(tok)
		}
		var parts [][]byte
		for dec.More() {
			var key []byte
			if d == '{' {
				k, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, _ = json.Marshal(k)
				key = append(key, ':')
			}
			v, err := rev()
			if err != nil {
				return nil, err
			}
			parts = append(parts, append(key, v...))
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		if d == '{' {
			slices.Reverse(parts)
			return []byte("{" + string(bytes.Join(parts, []byte(","))) + "}"), nil
		}
		return []byte("[" + string(bytes.Join(parts, []byte(","))) + "]"), nil
	}
	return rev()
}

// CheckStateDecode holds the decoding of data, a state of s's type, to
// encoding/json: both accept it and decode the same state, and json.Marshal
// of that state gives data back.
func CheckStateDecode(s Snapshotter, data []byte) error {
	codec, std, codecErr, stdErr := decodeBoth(s, data)
	if codecErr != nil || stdErr != nil {
		return fmt.Errorf("%s: decode: codec %v, encoding/json %v", s.StateKind(), codecErr, stdErr)
	}
	if !reflect.DeepEqual(codec, std) {
		return fmt.Errorf("%s: codec decoded\n%+v\nencoding/json decoded\n%+v", s.StateKind(), codec, std)
	}
	if again, err := json.Marshal(std); err != nil || !bytes.Equal(again, data) {
		return fmt.Errorf("%s: encoding/json writes the decoded state back as\n%s (%v)", s.StateKind(), again, err)
	}
	return nil
}

// stateDecodeTargets are the state types FuzzStateDecode decodes into, one
// scheduler of each; the first input byte picks one.
func stateDecodeTargets() []Snapshotter {
	return []Snapshotter{
		NewSCFQ(),
		MustNew("wfq", WithAssumedCapacity(1e4)).(Snapshotter),
		NewDRR(1),
		NewFairAirport(),
	}
}

// FuzzStateDecode decodes arbitrary bytes as each state type with the
// codec and with encoding/json. The codec must never panic, and on any
// input both accept the two must decode the same state.
func FuzzStateDecode(f *testing.F) {
	var reversed [][]byte // the same states, every object's members reversed
	for i, s := range stateDecodeTargets() {
		sch := s.(Interface)
		for fl := 1; fl <= 3; fl++ {
			if err := sch.AddFlow(fl, float64(100*fl)); err != nil {
				f.Fatal(err)
			}
		}
		now := 0.0
		for k := 0; k < 24; k++ {
			now += 0.001
			if k%4 == 3 {
				sch.Dequeue(now)
				continue
			}
			p := &Packet{Flow: k%3 + 1, Seq: int64(k), Length: float64(40 + k*7), Arrival: now, Rate: float64(k % 2 * 250)}
			if err := sch.Enqueue(now, p); err != nil {
				f.Fatal(err)
			}
		}
		data, err := s.AppendState(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(i)}, data...))
		rev, err := reverseMembers(data)
		if err != nil {
			f.Fatal(err)
		}
		reversed = append(reversed, append([]byte{byte(i)}, rev...))
	}
	f.Add([]byte("\x00{\"last\":1e400}"))
	f.Add([]byte("\x01{\"last\":0,\"LAST\":1}"))
	f.Add([]byte("\x02 {\"flows\":[{\"flow\":1.5}]} "))
	f.Add([]byte("\x03{\"flows\":null,\"flows\":[]}"))
	f.Add([]byte("\x04{\"levels\":[{\"a\":\"\\ud800\\udc00\"},[1,-0,2E-7]]}"))
	for _, seed := range reversed {
		f.Add(seed)
	}

	targets := stateDecodeTargets()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := targets[int(data[0])%len(targets)]
		codec, std, codecErr, stdErr := decodeBoth(s, data[1:])
		if codecErr == nil && stdErr == nil && !reflect.DeepEqual(codec, std) {
			t.Fatalf("%s: both accept %q but decode differently:\ncodec %+v\njson  %+v", s.StateKind(), data[1:], codec, std)
		}
	})
}

// TestStateCodecScripted holds a state with every optional field in use
// to encoding/json, for each scheduler type of this package.
func TestStateCodecScripted(t *testing.T) {
	for _, s := range stateDecodeTargets() {
		sch := s.(Interface)
		if err := sch.AddFlow(1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := sch.AddFlow(2, 1e-7); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			p := &Packet{Flow: k%2 + 1, Seq: int64(k), Length: 1e-3 + float64(k), Arrival: 1e21, Rate: 3e-9, Slack: -0.25, Deadline: 7}
			if err := sch.Enqueue(1e21, p); err != nil {
				t.Fatal(err)
			}
		}
		sch.Dequeue(1e21)
		data, err := s.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckStateCodec(s, data); err != nil {
			t.Error(err)
		}
	}
	// An empty scheduler: Fair Airport writes its nil flow list as null.
	for _, s := range stateDecodeTargets() {
		data, err := s.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckStateCodec(s, data); err != nil {
			t.Error(err)
		}
	}
}
