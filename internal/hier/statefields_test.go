package hier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/statecodec"
)

// fillDistinct gives every exported field under v a distinct non-zero
// value, as internal/sched's test of the same name does: numbers count up,
// strings need escaping, slices hold two elements, byte slices (raw
// documents) hold a small object, and a node nests at most twice.
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
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte(fmt.Sprintf(`{"raw":[%d,"\u003c"]}`, *n)))
			return
		}
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
		v.SetString(fmt.Sprintf("s<%d>& ", *n))
	default:
		panic(fmt.Sprintf("fillDistinct: %s", v.Type()))
	}
}

// checkTreeCodec holds the codec to encoding/json on v, seen through
// mirror: the codec writes what json.Marshal writes, reads that back to
// what json.Unmarshal reads, and writes the decoded value back unchanged.
func checkTreeCodec[T, M any](v *T, fn func(*T, *statecodec.Codec), mirror func(*T) M) error {
	want, err := json.Marshal(mirror(v))
	if err != nil {
		return err
	}
	if got, err := statecodec.Encode(nil, v, fn); err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("codec wrote\n%s (%v)\nencoding/json writes\n%s", got, err, want)
	}
	d := new(T)
	if err := statecodec.Decode(want, d, fn); err != nil {
		return fmt.Errorf("codec refused %s: %v", want, err)
	}
	var std M
	if err := json.Unmarshal(want, &std); err != nil {
		return err
	}
	if !reflect.DeepEqual(mirror(d), std) {
		return fmt.Errorf("codec decoded\n%+v\nencoding/json decoded\n%+v", mirror(d), std)
	}
	if again, err := statecodec.Encode(nil, d, fn); err != nil || !bytes.Equal(again, want) {
		return fmt.Errorf("the decoded value writes back as\n%s (%v)", again, err)
	}
	return nil
}

// TestStateCodecEveryField holds every field of the tree's state types to
// encoding/json whatever workload sets it: filled with a distinct non-zero
// value in every field, and at the zero value.
func TestStateCodecEveryField(t *testing.T) {
	node, tree := new(nodeState), new(treeState)
	fillDistinct(reflect.ValueOf(node).Elem(), new(int), map[reflect.Type]int{})
	fillDistinct(reflect.ValueOf(tree).Elem(), new(int), map[reflect.Type]int{})
	for name, err := range map[string]error{
		"nodeState":      checkTreeCodec(node, (*nodeState).codec, (*nodeState).mirror),
		"treeState":      checkTreeCodec(tree, (*treeState).codec, (*treeState).mirror),
		"zero nodeState": checkTreeCodec(new(nodeState), (*nodeState).codec, (*nodeState).mirror),
		"zero treeState": checkTreeCodec(new(treeState), (*treeState).codec, (*treeState).mirror),
	} {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzTreeStateDecode decodes arbitrary bytes as a tree state with the
// codec and with encoding/json, through the treeJSON mirror. The codec
// must never panic, and on any input both accept the two must decode the
// same state.
func FuzzTreeStateDecode(f *testing.F) {
	var reversed [][]byte // the same states, every object's members reversed
	for _, spec := range []string{"", "sfq(drr,edd)", "sfq(sfq(fifo,drr),edd)"} {
		h := NewHSFQ()
		if spec != "" {
			var err error
			if h, err = NewTree(spec, sched.Config{Quantum: 500}); err != nil {
				f.Fatal(err)
			}
		}
		for fl := 1; fl <= 4; fl++ {
			if err := h.AddFlow(fl, float64(100*fl)); err != nil {
				f.Fatal(err)
			}
		}
		now := 0.0
		for k := 0; k < 20; k++ {
			now += 0.001
			if k%4 == 3 {
				h.Dequeue(now)
				continue
			}
			if err := h.Enqueue(now, &sched.Packet{Flow: k%4 + 1, Seq: int64(k), Length: float64(40 + k*7), Arrival: now}); err != nil {
				f.Fatal(err)
			}
		}
		data, err := h.AppendState(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		rev, err := reverseMembers(data)
		if err != nil {
			f.Fatal(err)
		}
		reversed = append(reversed, rev)
	}
	f.Add([]byte(`{"root":{"name":"x","children":[{"name":"y","fifo":null}]},"LAST":1}`))
	f.Add([]byte(`{"bytes":{"1":2},"root":{"env":[1,{"a":"\ud800"}],"flows":[3,-0]},"draining":[]}`))
	f.Add([]byte(`{"root":{"name":"x","name":"y"},"total":1.5}`))
	for _, seed := range reversed {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var codec treeState
		var std treeJSON
		codecErr, stdErr := codec.decode(data), json.Unmarshal(data, &std)
		if codecErr == nil && stdErr == nil && !reflect.DeepEqual(codec.mirror(), std) {
			t.Fatalf("both accept %q but decode differently:\ncodec %+v\njson  %+v", data, codec.mirror(), std)
		}
	})
}
