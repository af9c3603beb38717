package liveops_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/liveops"
	"repro/internal/sched"
)

// envelopeJSON is liveops.Envelope as encoding/json sees it: the state as a
// raw document, not a base64 string.
type envelopeJSON struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	SHA256  string          `json:"sha256"`
	Time    float64         `json:"time,omitempty"`
	State   json.RawMessage `json:"state"`
}

// sfqEnvelope is a rank/sfq snapshot with a backlog, captured at t = 2.5.
func sfqEnvelope(t *testing.T) []byte {
	t.Helper()
	s := mkNamed(t, "sfq")
	drive(t, s, 60)
	data, err := liveops.SnapshotAt(2.5, s.(sched.Snapshotter))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// seal wraps state in an envelope with a correct digest, as a producer
// other than this package might write it.
func seal(kind, state string) []byte {
	sum := sha256.Sum256([]byte(state))
	return []byte(fmt.Sprintf(`{"version":1,"kind":%q,"sha256":%q,"state":%s}`, kind, hex.EncodeToString(sum[:]), state))
}

// TestEnvelopeMatchesEncodingJSON holds the one-pass envelope to
// encoding/json: its bytes are what json.Marshal writes for it, and Peek
// reads what json.Unmarshal reads.
func TestEnvelopeMatchesEncodingJSON(t *testing.T) {
	for _, now := range []float64{0, 2.5, 1e-9, 3e21} {
		s := mkNamed(t, "fairairport")
		drive(t, s, 40)
		data, err := liveops.SnapshotAt(now, s.(sched.Snapshotter))
		if err != nil {
			t.Fatal(err)
		}
		var std envelopeJSON
		if err := json.Unmarshal(data, &std); err != nil {
			t.Fatal(err)
		}
		if again, err := json.Marshal(std); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("time %v: encoding/json writes\n%s\nthe codec wrote\n%s", now, again, data)
		}
		env, err := liveops.Peek(data)
		if err != nil {
			t.Fatal(err)
		}
		if env.Version != std.Version || env.Kind != std.Kind || env.SHA256 != std.SHA256 || env.Time != std.Time || !bytes.Equal(env.State, std.State) {
			t.Fatalf("time %v: Peek read %+v, encoding/json %+v", now, env, std)
		}
	}
}

// TestHostileEnvelopes gives hostile input a defined outcome: each case
// below is refused with ErrBadState by Restore, and by Peek too unless the
// fault lies inside the state document in a form that is valid JSON (Peek
// checks the state's syntax and digest, not its schema). Every case that
// tampers with the state re-seals the digest, so it reaches the decoder.
func TestHostileEnvelopes(t *testing.T) {
	valid := sfqEnvelope(t)
	var std envelopeJSON
	if err := json.Unmarshal(valid, &std); err != nil {
		t.Fatal(err)
	}
	state := string(std.State)
	kind := std.Kind
	if kind != "rank/sfq" {
		t.Fatalf("kind %q", kind)
	}
	inState := func(old, new string) []byte {
		t.Helper()
		if !strings.Contains(state, old) {
			t.Fatalf("state has no %q", old)
		}
		return seal(kind, strings.Replace(state, old, new, 1))
	}
	inEnvelope := func(old, new string) []byte {
		t.Helper()
		if !bytes.Contains(valid, []byte(old)) {
			t.Fatalf("envelope has no %q", old)
		}
		return bytes.Replace(valid, []byte(old), []byte(new), 1)
	}
	deep := strings.Repeat("[", 600) + strings.Repeat("]", 600)
	for _, tc := range []struct {
		name     string
		data     []byte
		peekOK   bool // Peek accepts: the fault is in the state's schema
		contains string
	}{
		{"state key case-mismatched", inState(`"len":`, `"LEN":`), true, `unknown key "LEN"`},
		{"state key unknown", inState(`{"last":`, `{"bogus":1,"last":`), true, `unknown key "bogus"`},
		{"state key repeated", inState(`"busy":`, `"busy":true,"busy":`), true, `repeated key "busy"`},
		{"state null", seal(kind, "null"), true, "want '{'"},
		{"state field null", inState(`"len":`, `"len":null,"dl":`), true, "want a number"},
		{"state NaN", inState(`"vs":`, `"vs":NaN,"dl":`), false, "want a number"},
		{"state Infinity", inState(`"vs":`, `"vs":Infinity,"dl":`), false, "want a number"},
		{"state -Infinity", inState(`"vs":`, `"vs":-Infinity,"dl":`), false, "want a number"},
		{"state 1e400", inState(`"vs":`, `"vs":1e400,"dl":`), true, "out of float64 range"},
		{"state integer with fraction", inState(`"seq":`, `"seq":1.5,"rate":`), true, "fraction"},
		{"state integer with exponent", inState(`"seq":`, `"seq":1e0,"rate":`), true, "exponent"},
		{"state integer out of range", inState(`"seq":`, `"seq":9223372036854775808,"rate":`), true, "out of range"},
		{"state unsigned negative", inState(`"serial":`, `"serial":-1,"bogus":`), true, "sign"},
		{"state nested too deep", inState(`{"last":`, `{"bogus":`+deep+`,"last":`), false, "MaxDepth"},
		{"state trailing bytes", seal(kind, state+" 1"), false, "want '}'"},
		{"envelope null", []byte("null"), false, "want '{'"},
		{"envelope empty", nil, false, "end of document"},
		{"envelope trailing bytes", append(append([]byte{}, valid...), 'x'), false, "trailing"},
		{"envelope trailing document", append(append([]byte{}, valid...), "{}"...), false, "trailing"},
		{"envelope key unknown", inEnvelope(`"version":`, `"bogus":1,"version":`), false, `unknown key "bogus"`},
		{"envelope key repeated", inEnvelope(`"version":1`, `"version":1,"version":1`), false, `repeated key "version"`},
		{"envelope key case-mismatched", inEnvelope(`"version":`, `"Version":`), false, `unknown key "Version"`},
		{"envelope time NaN", inEnvelope(`"time":2.5`, `"time":NaN`), false, "want a number"},
		{"envelope time 1e400", inEnvelope(`"time":2.5`, `"time":1e400`), false, "out of float64 range"},
		{"envelope version with fraction", inEnvelope(`"version":1`, `"version":1.0`), false, "fraction"},
		{"envelope version with exponent", inEnvelope(`"version":1`, `"version":1e0`), false, "exponent"},
		{"envelope version out of range", inEnvelope(`"version":1`, `"version":99999999999999999999`), false, "out of range"},
		{"envelope version null", inEnvelope(`"version":1`, `"version":null`), false, "want a number"},
		{"envelope digest tampered", inEnvelope(`"sha256":"`, `"sha256":"0`), false, "digest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := liveops.Restore(tc.data, mkNamed(t, "sfq").(sched.Snapshotter))
			if !errors.Is(err, sched.ErrBadState) || !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("Restore: %v; want ErrBadState mentioning %q", err, tc.contains)
			}
			_, err = liveops.Peek(tc.data)
			switch {
			case tc.peekOK && err != nil:
				t.Errorf("Peek: %v; the envelope itself is sound", err)
			case !tc.peekOK && (!errors.Is(err, sched.ErrBadState) || !strings.Contains(err.Error(), tc.contains)):
				t.Errorf("Peek: %v; want ErrBadState mentioning %q", err, tc.contains)
			}
		})
	}
	t.Run("whitespace is not hostile", func(t *testing.T) {
		// The digest covers the state value, not the whitespace around it.
		spaced := string(seal(kind, strings.ReplaceAll(state, ",", " ,\t")))
		spaced = " " + strings.Replace(spaced, `"state":`, "\"state\" :\n ", 1)
		spaced = strings.TrimSuffix(spaced, "}") + "\r\n}\n"
		if err := liveops.Restore([]byte(spaced), mkNamed(t, "sfq").(sched.Snapshotter)); err != nil {
			t.Errorf("Restore: %v", err)
		}
	})
	t.Run("truncated at every byte", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			err := liveops.Restore(valid[:i], mkNamed(t, "sfq").(sched.Snapshotter))
			if !errors.Is(err, sched.ErrBadState) {
				t.Fatalf("Restore of the first %d bytes: %v", i, err)
			}
			if _, err := liveops.Peek(valid[:i]); !errors.Is(err, sched.ErrBadState) {
				t.Fatalf("Peek of the first %d bytes: %v", i, err)
			}
		}
	})
}

// TestSnapshotAtRefusesNonFiniteTime: a capture instant that no clock can
// resume from is refused at write time, as encoding/json refused it.
func TestSnapshotAtRefusesNonFiniteTime(t *testing.T) {
	s := mkNamed(t, "sfq")
	drive(t, s, 20)
	for _, now := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if data, err := liveops.SnapshotAt(now, s.(sched.Snapshotter)); err == nil {
			t.Errorf("SnapshotAt(%v) = %s, want an error", now, data)
		}
	}
}
