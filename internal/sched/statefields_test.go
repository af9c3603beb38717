package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/statecodec"
)

// stateCase is one state type as the codec writes and reads it.
type stateCase struct {
	name string
	new  func() any                     // a fresh *T
	enc  func(v any) ([]byte, error)    // the codec's bytes for *T
	dec  func(data []byte) (any, error) // a fresh *T read by the codec
	// null marks the one format that reads a nil slice written as null.
	null bool
}

func codecCase[T any](name string, fn func(*T, *statecodec.Codec)) stateCase {
	return stateCase{
		name: name,
		new:  func() any { return new(T) },
		enc:  func(v any) ([]byte, error) { return statecodec.Encode(nil, v.(*T), fn) },
		dec: func(data []byte) (any, error) {
			v := new(T)
			return v, statecodec.Decode(data, v, fn)
		},
	}
}

// stateCases lists every state type of this package.
func stateCases() []stateCase {
	fa := codecCase("faState", (*faState).codec)
	fa.null = true
	return []stateCase{
		codecCase("PacketState", (*PacketState).codec),
		codecCase("QueuedItemState", (*QueuedItemState).codec),
		codecCase("FlowQState", (*FlowQState).Codec),
		codecCase("FlowSetState", (*FlowSetState).codec),
		codecCase("FlowAccounting", (*FlowAccounting).codec),
		codecCase("GPSFlowCount", (*GPSFlowCount).codec),
		codecCase("GPSEntryState", (*GPSEntryState).codec),
		codecCase("GPSState", (*GPSState).codec),
		codecCase("drrFlowState", (*drrFlowState).codec),
		codecCase("drrState", (*drrState).codec),
		codecCase("faFlowState", (*faFlowState).codec),
		codecCase("faStampState", (*faStampState).codec),
		fa,
		codecCase("FlowRankState", (*FlowRankState).codec),
		codecCase("PIFOState", (*PIFOState).codec),
		codecCase("rankFlowState", (*rankFlowState).codec),
		codecCase("rankedState", (*rankedState).codec),
	}
}

// fillDistinct gives every exported field under v a distinct non-zero
// value: numbers count up, strings need escaping, slices hold two
// elements. A struct type nests inside itself at most twice.
func fillDistinct(v reflect.Value, n *int, open map[reflect.Type]int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		open[v.Type()]++
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(v.Field(i), n, open)
			}
		}
		open[v.Type()]--
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), n, open)
	case reflect.Slice:
		if open[v.Type().Elem()] >= 2 {
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillDistinct(s.Index(i), n, open)
		}
		v.Set(s)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s<%d>& ", *n))
	default:
		panic(fmt.Sprintf("fillDistinct: %s", v.Type()))
	}
}

// emptySlices turns every nil slice under v into an empty one.
func emptySlices(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				emptySlices(v.Field(i))
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			emptySlices(v.Elem())
		}
	case reflect.Slice:
		if v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		}
		for i := 0; i < v.Len(); i++ {
			emptySlices(v.Index(i))
		}
	}
}

// checkAgainstJSON holds the codec to encoding/json on v: the codec writes
// what json.Marshal writes, reads that back to what json.Unmarshal reads,
// and writes the decoded value back to the same bytes.
func (tc stateCase) checkAgainstJSON(v any) error {
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	got, err := tc.enc(v)
	if err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("codec wrote\n%s (%v)\nencoding/json writes\n%s", got, err, want)
	}
	d, err := tc.dec(want)
	if err != nil {
		return fmt.Errorf("codec refused %s: %v", want, err)
	}
	std := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := json.Unmarshal(want, std); err != nil {
		return err
	}
	if !reflect.DeepEqual(d, std) {
		return fmt.Errorf("codec decoded\n%+v\nencoding/json decoded\n%+v", d, std)
	}
	if again, err := tc.enc(d); err != nil || !bytes.Equal(again, want) {
		return fmt.Errorf("the decoded value writes back as\n%s (%v)", again, err)
	}
	return nil
}

// TestStateCodecEveryField holds every field of every state type to
// encoding/json whatever workload sets it: each state filled with a
// distinct non-zero value in every field, and each at its zero value.
func TestStateCodecEveryField(t *testing.T) {
	for _, tc := range stateCases() {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.new()
			fillDistinct(reflect.ValueOf(full).Elem(), new(int), map[reflect.Type]int{})
			if err := tc.checkAgainstJSON(full); err != nil {
				t.Errorf("every field set: %v", err)
			}
			zero := tc.new()
			if err := tc.checkZero(zero); err != nil {
				t.Errorf("zero value: %v", err)
			}
			emptySlices(reflect.ValueOf(zero).Elem())
			if err := tc.checkAgainstJSON(zero); err != nil {
				t.Errorf("zero value, empty slices: %v", err)
			}
		})
	}
}

// checkZero holds the zero value's bytes to json.Marshal; they read back
// unless a nil slice is written as null where the format refuses one.
func (tc stateCase) checkZero(v any) error {
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if got, err := tc.enc(v); err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("codec wrote\n%s (%v)\nencoding/json writes\n%s", got, err, want)
	}
	_, err = tc.dec(want)
	if wantOK := tc.null || !bytes.Contains(want, []byte("null")); (err == nil) != wantOK {
		return fmt.Errorf("decoding %s: %v", want, err)
	}
	return nil
}
