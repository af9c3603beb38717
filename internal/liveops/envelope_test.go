package liveops

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/statecodec"
)

// envelopeMirror is Envelope as encoding/json sees it: the state as a raw
// document, not a base64 string.
type envelopeMirror struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	SHA256  string          `json:"sha256"`
	Time    float64         `json:"time,omitempty"`
	State   json.RawMessage `json:"state"`
}

func (env *Envelope) mirror() envelopeMirror {
	return envelopeMirror{Version: env.Version, Kind: env.Kind, SHA256: env.SHA256, Time: env.Time, State: env.State}
}

// TestEnvelopeCodecEveryField holds every field of the envelope to
// encoding/json, filled with a distinct non-zero value and at zero: the
// codec writes what json.Marshal writes, reads that back to what
// json.Unmarshal reads, and writes the decoded envelope back unchanged.
func TestEnvelopeCodecEveryField(t *testing.T) {
	var full Envelope
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.String:
			f.SetString(fmt.Sprintf("s<%d>&", i))
		case reflect.Slice:
			f.SetBytes([]byte(fmt.Sprintf(`{"raw":[%d,"\u003c"]}`, i)))
		default:
			t.Fatalf("field %s: no value for %s", v.Type().Field(i).Name, f.Type())
		}
	}
	for name, env := range map[string]*Envelope{"every field set": &full, "zero": {}} {
		want, err := json.Marshal(env.mirror())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := statecodec.Encode(nil, env, (*Envelope).codec); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: codec wrote\n%s (%v)\nencoding/json writes\n%s", name, got, err, want)
		}
		var d Envelope
		if err := statecodec.Decode(want, &d, (*Envelope).codec); err != nil {
			t.Errorf("%s: codec refused %s: %v", name, want, err)
			continue
		}
		var std envelopeMirror
		if err := json.Unmarshal(want, &std); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.mirror(), std) {
			t.Errorf("%s: codec decoded\n%+v\nencoding/json decoded\n%+v", name, d.mirror(), std)
		}
		if again, err := statecodec.Encode(nil, &d, (*Envelope).codec); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: the decoded envelope writes back as\n%s (%v)", name, again, err)
		}
	}
}
