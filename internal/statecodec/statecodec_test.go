package statecodec

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// encoding/json is the reference: the Writer must emit what json.Marshal
// emits, and the Reader must decode what json.Unmarshal decodes wherever
// both accept.

func write(fn func(w *Writer)) (string, error) {
	w := NewWriter(nil)
	fn(&w)
	b, err := w.Bytes()
	return string(b), err
}

func testFloats() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, -2.25, 1e-6, 9.99e-7, 1e-7, 1.5e-7, 1e-300,
		5e-324, math.SmallestNonzeroFloat64, 1e20, 1e21, 9.99e20, 1.5e21, 1e300, math.MaxFloat64,
		-math.MaxFloat64, 1 << 53, 1<<53 + 2, 1<<53 - 1, -(1 << 53), 1 << 62, 123456789.125,
		0.3, 2.0 / 3, 500, 1e15, 1e16, 1e17, 123e-20, -4.5e-10,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		xs = append(xs, float64(rng.Int63n(1<<54)-1<<53))
	}
	return xs
}

func TestWriterFloatMatchesEncodingJSON(t *testing.T) {
	for _, x := range testFloats() {
		got, err := write(func(w *Writer) { w.Float(x) })
		want, jerr := json.Marshal(x)
		if (err != nil) != (jerr != nil) {
			t.Fatalf("%v: codec error %v, encoding/json error %v", x, err, jerr)
		}
		if jerr == nil && got != string(want) {
			t.Fatalf("%v (%#x): codec wrote %s, encoding/json %s", x, math.Float64bits(x), got, want)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := write(func(w *Writer) { w.Float(x) }); err == nil {
			t.Errorf("%v: written without an error", x)
		}
	}
}

func TestWriterIntegersMatchEncodingJSON(t *testing.T) {
	for _, n := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1e15} {
		got, _ := write(func(w *Writer) { w.Int64(n) })
		if want, _ := json.Marshal(n); got != string(want) {
			t.Errorf("Int64(%d) = %s, want %s", n, got, want)
		}
	}
	for _, n := range []uint64{0, 1, math.MaxUint64} {
		got, _ := write(func(w *Writer) { w.Uint(n) })
		if want, _ := json.Marshal(n); got != string(want) {
			t.Errorf("Uint(%d) = %s, want %s", n, got, want)
		}
	}
}

func testStrings() []string {
	ss := []string{
		"", "sched/drr", "rank/sfq", "hier:sfq(drr,edd)", `quote " backslash \ slash /`,
		"<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f", "line\u2028para\u2029",
		"héllo wörld ✓ 𝄞", "bad \xff\xfe utf8 \xc3", "\xed\xa0\x80 surrogate bytes", "\ufffd",
	}
	rng := rand.New(rand.NewSource(2))
	alphabet := []string{"a", "\"", "\\", "<", ">", "&", "\x00", "\n", "\x1f", "é", "\u2028", "\u2029", "\xff", "\xe2\x80", "𝄞", "\ufffd"}
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for j := rng.Intn(12); j > 0; j-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		ss = append(ss, b.String())
	}
	return ss
}

func TestWriterStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range testStrings() {
		got, err := write(func(w *Writer) { w.String(s) })
		want, _ := json.Marshal(s)
		if err != nil || got != string(want) {
			t.Fatalf("%q: codec wrote %s (%v), encoding/json %s", s, got, err, want)
		}
	}
}

func TestWriterLayout(t *testing.T) {
	got, err := write(func(w *Writer) {
		w.BeginObject()
		w.Key("a").Int(1)
		w.Key("b").BeginArray()
		w.Bool(true)
		w.Null()
		w.BeginObject()
		w.EndObject()
		w.EndArray()
		w.Key("c").Null()
		w.Key("d").BeginArray()
		w.EndArray()
		w.Key("e").raw(nil, func(b []byte) ([]byte, error) { return append(b, `{"x":2}`...), nil })
		w.Key("f").raw([]byte(`[3]`), nil)
		w.Key("g").raw(nil, nil)
		w.EndObject()
	})
	if want := `{"a":1,"b":[true,null,{}],"c":null,"d":[],"e":{"x":2},"f":[3],"g":null}`; err != nil || got != want {
		t.Errorf("got %s (%v), want %s", got, err, want)
	}
}

func TestReaderFloatMatchesEncodingJSON(t *testing.T) {
	var lits []string
	for _, x := range testFloats() {
		if b, err := json.Marshal(x); err == nil {
			lits = append(lits, string(b))
		}
	}
	lits = append(lits, "-0", "0.0", "1E2", "1e+2", "1e-2", "123456789012345678901234567890", "1e-400", "-1e-400",
		"4.9406564584124654e-324", "1.7976931348623157e308", "1.7976931348623159e308",
		"1e400", "-1e400", "NaN", "Infinity", "-Infinity", "01", "1.", ".5", "1e", "+1", "-", "0x10", "1_0", "true", `"1"`, "null")
	for _, lit := range lits {
		r := NewReader([]byte(lit))
		got := r.Float()
		err := r.Done()
		var want float64
		jerr := json.Unmarshal([]byte(lit), &want)
		if lit == "null" {
			jerr = errNull // encoding/json leaves the field alone; the codec refuses
		}
		if (err != nil) != (jerr != nil) {
			t.Errorf("%s: codec error %v, encoding/json error %v", lit, err, jerr)
			continue
		}
		if err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: codec read %v, encoding/json %v", lit, got, want)
		}
	}
}

var errNull = json.Unmarshal([]byte(`1`), new(string))

func TestReaderIntegers(t *testing.T) {
	for _, tc := range []struct {
		lit  string
		i64  bool // Int64 accepts it
		u64  bool // Uint accepts it
		want string
	}{
		{"0", true, true, "0"},
		{"-0", true, false, "0"},
		{"42", true, true, "42"},
		{"9223372036854775807", true, true, "9223372036854775807"},
		{"9223372036854775808", false, true, "9223372036854775808"},
		{"-9223372036854775808", true, false, "-9223372036854775808"},
		{"-9223372036854775809", false, false, ""},
		{"18446744073709551615", false, true, "18446744073709551615"},
		{"18446744073709551616", false, false, ""},
		{"1.0", false, false, ""},
		{"1e2", false, false, ""},
		{"1E0", false, false, ""},
		{"-1", true, false, "-1"},
		{"01", false, false, ""},
		{`"1"`, false, false, ""},
	} {
		r := NewReader([]byte(tc.lit))
		n := r.Int64()
		if err := r.Done(); (err == nil) != tc.i64 {
			t.Errorf("Int64(%s): error %v", tc.lit, err)
		} else if err == nil {
			var want int64
			if jerr := json.Unmarshal([]byte(tc.lit), &want); jerr != nil || want != n {
				t.Errorf("Int64(%s) = %d; encoding/json %d, %v", tc.lit, n, want, jerr)
			}
		}
		r = NewReader([]byte(tc.lit))
		u := r.Uint()
		if err := r.Done(); (err == nil) != tc.u64 {
			t.Errorf("Uint(%s): error %v", tc.lit, err)
		} else if err == nil {
			var want uint64
			if jerr := json.Unmarshal([]byte(tc.lit), &want); jerr != nil || want != u {
				t.Errorf("Uint(%s) = %d; encoding/json %d, %v", tc.lit, u, want, jerr)
			}
		}
	}
}

func TestReaderStringMatchesEncodingJSON(t *testing.T) {
	var lits []string
	for _, s := range testStrings() {
		b, _ := json.Marshal(s)
		lits = append(lits, string(b), `"`+s+`"`)
	}
	lits = append(lits, `"𝄞"`, `"\ud834"`, `"\ud834x"`, `"\udd1e\ud834"`, `"\ud834A"`,
		`"é\/\b\f\n\r\t\"\\"`, `"\x"`, `"\u12"`, `"\u12g4"`, `"unterminated`, `"a\`, "\"ctl\x01\"", `"\'"`)
	for _, lit := range lits {
		r := NewReader([]byte(lit))
		got := r.String()
		err := r.Done()
		var want string
		jerr := json.Unmarshal([]byte(lit), &want)
		if (err != nil) != (jerr != nil) {
			t.Errorf("%q: codec error %v, encoding/json error %v", lit, err, jerr)
			continue
		}
		if err == nil && got != want {
			t.Errorf("%q: codec read %q, encoding/json %q", lit, got, want)
		}
	}
}

func TestRawMatchesJSONValid(t *testing.T) {
	for _, doc := range []string{
		`{}`, `[]`, `{"a":[1,2,{"b":null}],"c":"x\"y","d":true,"e":false}`, ` [ 1 , -2.5e3 , "s" ] `,
		`{"a":1,"a":2}`, `{"a" : {"b" : [ ] } }`, `"é"`, `-0`, `null`,
		`{`, `[1,]`, `{"a":1,}`, `{"a"}`, `{a:1}`, `[1 2]`, `{"a":1 "b":2}`, `[}`, `{]`, `tru`, `nul`,
		`[NaN]`, `[1e]`, `[01]`, `"\q"`, `{"a":1}}`, `[1]]`, `]`, `:`, ``, ` `,
	} {
		r := NewReader([]byte(doc))
		raw := r.Raw()
		err := r.Done()
		if valid := json.Valid([]byte(doc)); (err == nil) != valid {
			t.Errorf("%q: codec error %v, json.Valid %v", doc, err, valid)
			continue
		}
		if err == nil && string(raw) != strings.TrimSpace(doc) {
			t.Errorf("%q: raw span %q", doc, raw)
		}
	}
}

func TestReaderDepth(t *testing.T) {
	nest := func(n int) []byte {
		return []byte(strings.Repeat("[", n) + strings.Repeat("]", n))
	}
	for _, tc := range []struct {
		n  int
		ok bool
	}{{MaxDepth, true}, {MaxDepth + 1, false}, {100 * MaxDepth, false}} {
		r := NewReader(nest(tc.n))
		r.Raw()
		if err := r.Done(); (err == nil) != tc.ok {
			t.Errorf("Raw over %d levels: error %v", tc.n, err)
		}
	}
	// The array loop counts the same depth as Raw.
	var walk func(r *Reader)
	walk = func(r *Reader) {
		for i := 0; r.element(i); i++ {
			walk(r)
		}
	}
	for _, tc := range []struct {
		n  int
		ok bool
	}{{MaxDepth, true}, {MaxDepth + 1, false}} {
		r := NewReader(nest(tc.n))
		walk(&r)
		if err := r.Done(); (err == nil) != tc.ok {
			t.Errorf("array over %d levels: error %v", tc.n, err)
		}
	}
}

type testRecord struct {
	Flow int     `json:"flow"`
	Len  float64 `json:"len"`
	Name string  `json:"name"`
}

func (rec *testRecord) codec(c *Codec) {
	c.Int("flow", &rec.Flow)
	c.Float("len", &rec.Len)
	c.String("name", &rec.Name)
}

// TestCodecReadStrict reads objects in any member order, with missing
// members, and refuses unknown, case-mismatched and repeated keys and
// anything that is not the record.
func TestCodecReadStrict(t *testing.T) {
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{`{"flow":1,"len":2.5,"name":"x"}`, true},
		{`{"name":"x","len":2.5,"flow":1}`, true}, // reversed: read from the table
		{` { "name" : "x" , "flow" : 1 } `, true}, // any order, whitespace, missing keys
		{`{"len":2.5}`, true},
		{`{}`, true},
		{`{"fl\u006fw":1}`, true}, // escapes decode before matching
		{`{"len":2.5,"fl\u006fw":1}`, true},
		{`{"LEN":1}`, false},
		{`{"Flow":1}`, false},
		{`{"bogus":1}`, false},
		{`{"flow":1,"bogus":1}`, false},
		{`{"flow":1,"len":2.5,"name":"x","bogus":1}`, false},
		{`{"flow":1,"flow":2}`, false},
		{`{"name":"x","flow":1,"name":"y"}`, false},
		{`{"flow":null}`, false},
		{`{"len":1,"flow":null}`, false},
		{`null`, false},
		{`{"flow":1}x`, false},
		{`{"flow":1}{}`, false},
		{`{"flow":1.5}`, false},
		{`{"len":NaN}`, false},
		{`{"len":Infinity}`, false},
		{`{"len":1e400}`, false},
		{`{"flow":1,}`, false},
		{`{"len":1,"flow":1,}`, false},
		{`{"flow":1`, false},
		{`{"len":1,"flow":1`, false},
		{`[{"flow":1}]`, false},
	} {
		var rec testRecord
		err := Decode([]byte(tc.doc), &rec, (*testRecord).codec)
		if (err == nil) != tc.ok {
			t.Errorf("%s: error %v", tc.doc, err)
			continue
		}
		var want testRecord
		if err == nil && (json.Unmarshal([]byte(tc.doc), &want) != nil || rec != want) {
			t.Errorf("%s: codec read %+v, encoding/json %+v", tc.doc, rec, want)
		}
	}
	// An object that falls back holds no more members than any format has
	// fields; past that it is refused before its keys are compared.
	var many strings.Builder
	many.WriteString(`{"name":"x"`)
	for i := 0; i < maxMembers; i++ {
		fmt.Fprintf(&many, `,"k%d":1`, i)
	}
	many.WriteString("}")
	if err := Decode([]byte(many.String()), new(testRecord), (*testRecord).codec); err == nil || !strings.Contains(err.Error(), "more members") {
		t.Errorf("%d members: error %v", maxMembers+1, err)
	}
}

// testNest is a record that holds itself, to nest objects deeply.
type testNest struct {
	Rec  testRecord   `json:"rec"`
	In   *testNest    `json:"in,omitempty"`
	Recs []testRecord `json:"recs,omitempty"`
	Last int          `json:"last"`
}

func (n *testNest) codec(c *Codec) {
	Struct(c, "rec", &n.Rec, (*testRecord).codec)
	Ptr(c, "in", &n.In, (*testNest).codec)
	SliceOmit(c, "recs", &n.Recs, (*testRecord).codec)
	c.Int("last", &n.Last)
}

// TestCodecFallbackLinear reads objects nested 400 deep, each out of
// order, around 1 000 records: each object falls back to its table, and
// each member is still decoded once, so the records are not decoded again
// for each enclosing fallback.
func TestCodecFallbackLinear(t *testing.T) {
	const depth, recs = 400, 1000
	// Each level reads "in" in order, then falls back on "rec": the nested
	// member was decoded before the fallback, and must not be again.
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString(`{"in":`)
	}
	b.WriteString(`{"recs":[`)
	for i := 0; i < recs; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"name":"r%d","flow":%d}`, i, i)
	}
	b.WriteString(`],"rec":{"name":"x","flow":7}}`)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `,"rec":{"len":1.5},"last":%d}`, i)
	}
	doc := []byte(b.String())
	var got testNest
	if err := Decode(doc, &got, (*testNest).codec); err != nil {
		t.Fatal(err)
	}
	var want testNest
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatal(err)
	}
	for g, w, i := &got, &want, 0; g != nil || w != nil; g, w, i = g.In, w.In, i+1 {
		if g == nil || w == nil || g.Rec != w.Rec || g.Last != w.Last || !slices.Equal(g.Recs, w.Recs) {
			t.Fatalf("level %d: codec read %+v, encoding/json %+v", i, g, w)
		}
	}
	// Per level and per record a table, plus a new node per level, a name
	// per record and the slice's growth. Decoding the records once per
	// enclosing fallback would cost depth times as many.
	allocs := testing.AllocsPerRun(1, func() {
		var n testNest
		if err := Decode(doc, &n, (*testNest).codec); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*depth + 2*recs + 100); allocs > limit {
		t.Errorf("decode allocated %v times, want at most %v", allocs, limit)
	}
}

// TestReaderTruncated decodes every prefix of a document: each must fail
// cleanly, and none may panic.
func TestReaderTruncated(t *testing.T) {
	doc := `{"flow":12,"len":-1.5e-3,"name":"aé𝄞\"b"}`
	full := `{"recs":[` + doc + `,` + doc + `],"last":{"name":"c","flow":1}}`
	for i := 0; i < len(full); i++ {
		var recs testRecords
		if Decode([]byte(full[:i]), &recs, (*testRecords).codec) == nil {
			t.Errorf("prefix %q decoded without an error", full[:i])
		}
		r := NewReader([]byte(full[:i]))
		r.Raw()
		if r.Done() == nil {
			t.Errorf("prefix %q skipped without an error", full[:i])
		}
	}
	var recs, want testRecords
	err := Decode([]byte(full), &recs, (*testRecords).codec)
	if err != nil || json.Unmarshal([]byte(full), &want) != nil || len(recs.Recs) != 2 || recs.Recs[0] != want.Recs[0] || recs.Recs[1] != want.Recs[1] || recs.Last != want.Last {
		t.Errorf("full document: %v, %+v, want %+v", err, recs, want)
	}
}

type testRecords struct {
	Recs []testRecord `json:"recs"`
	Last testRecord   `json:"last"`
}

func (rs *testRecords) codec(c *Codec) {
	Slice(c, "recs", &rs.Recs, (*testRecord).codec)
	Struct(c, "last", &rs.Last, (*testRecord).codec)
}
