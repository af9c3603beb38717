// Package statecodec is the JSON codec of the live-state formats: the
// scheduler snapshots of internal/sched and internal/hier and the
// internal/liveops envelope around them. It uses no reflection.
//
// Each state type states its format once, as one method that visits its
// fields in order through a Codec; Encode runs it to write the type and
// Decode to read it (see Codec).
//
// Writing emits exactly the bytes encoding/json's Marshal emits for the
// same tagged struct: keys in field order, omitempty fields left out when
// zero, floats in its shortest form ('e' notation below 1e-6 and from 1e21
// on, with "e-07" shortened to "e-7"), strings with its default HTML-safe
// escaping, NaN and ±Inf refused. A nested document (a discipline's state
// inside a tree's, a level's inside a composition's) is written in place.
//
// Reading is strict where encoding/json is lenient. A key must be one of
// the object's fields, spelled exactly, at most once; null (except where a
// format reads one with Null), NaN, Infinity and numbers that overflow a
// float64 are refused; an integer field takes only an integer literal in
// range; nothing may follow the document; nesting is bounded by MaxDepth.
// On any input both accept, the two decode the same values. Reading never
// panics: every failure is a sticky error that ends all further reads.
package statecodec

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// ---------------------------------------------------------------- Writer --

// Writer appends one JSON document to a byte slice. Keys are written as
// given: they are the constants of the state formats, plain ASCII with
// nothing to escape. The first failure (a non-finite float, or one passed
// to Fail) is kept and returned by Bytes; writing goes on harmlessly.
type Writer struct {
	buf   []byte
	comma bool // a value ends just before the write point
	err   error

	// The last fraction written, and where its digits are in buf.
	lastBits       uint64
	lastAt, lastTo int
}

// NewWriter returns a Writer that appends to b.
func NewWriter(b []byte) Writer { return Writer{buf: b} }

// Bytes returns the appended slice and the first failure, if any.
func (w *Writer) Bytes() ([]byte, error) { return w.buf, w.err }

// Fail records err unless a failure is recorded already.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *Writer) sep() {
	if w.comma {
		w.buf = append(w.buf, ',')
	}
	w.comma = true
}

// Key starts the member k of the current object; its value is written
// next, typically chained: w.Key("len").Float(x).
func (w *Writer) Key(k string) *Writer {
	w.sep()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':')
	w.comma = false
	return w
}

// BeginObject opens an object.
func (w *Writer) BeginObject() {
	w.reserve()
	w.sep()
	w.buf = append(w.buf, '{')
	w.comma = false
}

// reserve keeps room for a record ahead of the write point, doubling the
// buffer when it runs short: append alone grows a megabyte-sized slice by
// a quarter at a time, copying it over and over.
func (w *Writer) reserve() {
	if cap(w.buf)-len(w.buf) < 1024 {
		w.buf = slices.Grow(w.buf, cap(w.buf)+4096)
	}
}

// EndObject closes the current object.
func (w *Writer) EndObject() {
	w.buf = append(w.buf, '}')
	w.comma = true
}

// BeginArray opens an array.
func (w *Writer) BeginArray() {
	w.sep()
	w.buf = append(w.buf, '[')
	w.comma = false
}

// EndArray closes the current array.
func (w *Writer) EndArray() {
	w.buf = append(w.buf, ']')
	w.comma = true
}

// Null writes null.
func (w *Writer) Null() {
	w.sep()
	w.buf = append(w.buf, "null"...)
}

// Bool writes b.
func (w *Writer) Bool(b bool) {
	w.sep()
	w.buf = strconv.AppendBool(w.buf, b)
}

// Int writes n.
func (w *Writer) Int(n int) { w.Int64(int64(n)) }

// Int64 writes n.
func (w *Writer) Int64(n int64) {
	w.sep()
	w.buf = strconv.AppendInt(w.buf, n, 10)
}

// Uint writes n.
func (w *Writer) Uint(n uint64) {
	w.sep()
	w.buf = strconv.AppendUint(w.buf, n, 10)
}

// Float writes x as encoding/json does; NaN and ±Inf fail the Writer.
func (w *Writer) Float(x float64) {
	w.sep()
	if math.IsNaN(x) || math.IsInf(x, 0) {
		w.Fail(fmt.Errorf("statecodec: unsupported value: %v", x))
		w.buf = append(w.buf, '0')
		return
	}
	abs := math.Abs(x)
	if abs < 1<<53 && x == math.Trunc(x) && !(x == 0 && math.Signbit(x)) {
		// An integral value prints its digits in 'f' form: the common case.
		w.buf = strconv.AppendInt(w.buf, int64(x), 10)
		return
	}
	// Tag chains write a value over and over (a backlogged flow's next
	// start tag is its last finish tag): copy the last fraction's digits.
	if bits := math.Float64bits(x); bits == w.lastBits && w.lastTo > w.lastAt {
		w.buf = append(w.buf, w.buf[w.lastAt:w.lastTo]...)
		return
	}
	at := len(w.buf)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		w.buf = strconv.AppendFloat(w.buf, x, 'e', -1, 64)
		// Shorten e-07 to e-7, as encoding/json does.
		if n := len(w.buf); n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	} else {
		w.buf = strconv.AppendFloat(w.buf, x, 'f', -1, 64)
	}
	w.lastBits, w.lastAt, w.lastTo = math.Float64bits(x), at, len(w.buf)
}

const hexDigits = "0123456789abcdef"

// String writes s with encoding/json's default escaping: quote, backslash
// and control bytes escaped, <, > and & as \u003c, \u003e and \u0026,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8
// as \ufffd.
func (w *Writer) String(s string) {
	w.sep()
	b := append(w.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.buf = append(b, '"')
}

// raw writes a nested document: the one write appends in place when
// non-nil, with its failure kept as the Writer's; else b as it is, and
// null when b is empty.
func (w *Writer) raw(b []byte, write func([]byte) ([]byte, error)) {
	w.sep()
	switch {
	case write != nil:
		var err error
		if w.buf, err = write(w.buf); err != nil {
			w.Fail(err)
		}
	case len(b) == 0:
		w.buf = append(w.buf, "null"...)
	default:
		w.buf = append(w.buf, b...)
	}
}

// ---------------------------------------------------------------- Reader --

// MaxDepth bounds how deeply a document's objects and arrays may nest.
const MaxDepth = 512

// Reader decodes one JSON document. Values are read in document order by
// the caller, who knows the schema: the Codec.
type Reader struct {
	data  []byte
	pos   int
	depth int
	err   error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Done ends the document: only whitespace may follow the value read. It
// returns the first failure, if any.
func (r *Reader) Done() error {
	if r.err == nil {
		r.ws()
		if r.pos < len(r.data) {
			r.fail("trailing bytes after the document")
		}
	}
	return r.err
}

func (r *Reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("statecodec: %s at offset %d", msg, r.pos)
	}
}

func (r *Reader) ws() { r.pos = skipWS(r.data, r.pos) }

// skipWS returns the index of the first non-whitespace byte at or after i.
func skipWS(d []byte, i int) int {
	if i < len(d) && d[i] > ' ' {
		return i // the common case, inlined: documents are written compact
	}
	return skipWSSlow(d, i)
}

func skipWSSlow(d []byte, i int) int {
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	return i
}

// peek skips whitespace and returns the next byte, or 0 at the end or
// after a failure.
func (r *Reader) peek() byte {
	if r.err != nil {
		return 0
	}
	r.ws()
	if r.pos >= len(r.data) {
		return 0
	}
	return r.data[r.pos]
}

func (r *Reader) expect(c byte) bool {
	if r.peek() != c {
		if r.pos >= len(r.data) {
			r.fail("unexpected end of document")
		} else {
			r.fail(fmt.Sprintf("want %q, have %q", c, r.data[r.pos]))
		}
		return false
	}
	r.pos++
	return true
}

func (r *Reader) open(c byte) bool {
	if !r.expect(c) {
		return false
	}
	if r.depth++; r.depth > MaxDepth {
		r.fail("nesting deeper than MaxDepth")
		return false
	}
	return true
}

// literal consumes the keyword lit.
func (r *Reader) literal(lit string) {
	if r.err != nil {
		return
	}
	end, msg := scanLiteral(r.data, r.pos, lit)
	if msg != "" {
		r.fail(msg)
		return
	}
	r.pos = end
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch r.peek() {
	case 't':
		r.literal("true")
		return r.err == nil
	case 'f':
		r.literal("false")
	default:
		r.fail("want a boolean")
	}
	return false
}

// number scans a JSON number literal, reporting whether it is an integer
// (no fraction, no exponent).
func (r *Reader) number() (lit []byte, integral bool) {
	if r.peek() == 0 && r.err == nil {
		r.fail("unexpected end of document")
	}
	if r.err != nil {
		return nil, false
	}
	end, integral, msg := scanNumber(r.data, r.pos)
	if msg != "" {
		r.pos = end
		r.fail(msg)
		return nil, false
	}
	lit, r.pos = r.data[r.pos:end], end
	return lit, integral
}

// scanNumber checks the grammar of the number at d[i:]: an optional minus,
// 0 or a digit run without a leading zero, then an optional fraction and
// exponent. It returns the end of the literal, or msg and where it failed.
func scanNumber(d []byte, i int) (end int, integral bool, msg string) {
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = scanDigits(d, i+1)
	default:
		return i, false, "want a number"
	}
	integral = true
	if i < len(d) && d[i] == '.' {
		integral = false
		j := scanDigits(d, i+1)
		if j == i+1 {
			return j, false, "want a digit after the decimal point"
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integral = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := scanDigits(d, i)
		if j == i {
			return j, false, "want a digit in the exponent"
		}
		i = j
	}
	return i, integral, ""
}

// scanDigits returns the end of the run of digits at d[i:].
func scanDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// magnitude reads an integer literal's digits as an unsigned value,
// reporting whether it is negative and whether it fit in 64 bits.
func (r *Reader) magnitude() (n uint64, neg, ok bool) {
	lit, integral := r.number()
	if r.err != nil {
		return 0, false, false
	}
	if !integral {
		r.fail("integer field given a fraction or an exponent")
		return 0, false, false
	}
	if lit[0] == '-' {
		neg, lit = true, lit[1:]
	}
	for _, c := range lit {
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			r.fail("integer out of range")
			return 0, false, false
		}
		n = n*10 + d
	}
	return n, neg, true
}

// Int64 reads an integer in int64 range.
func (r *Reader) Int64() int64 {
	n, neg, ok := r.magnitude()
	switch {
	case !ok:
		return 0
	case neg && n <= 1<<63:
		return -int64(n)
	case !neg && n < 1<<63:
		return int64(n)
	}
	r.fail("integer out of range")
	return 0
}

// Int reads an integer in int range.
func (r *Reader) Int() int {
	n := r.Int64()
	if int64(int(n)) != n {
		r.fail("integer out of range")
		return 0
	}
	return int(n)
}

// Uint reads a non-negative integer in uint64 range.
func (r *Reader) Uint() uint64 {
	n, neg, ok := r.magnitude()
	if ok && neg {
		r.fail("unsigned field given a sign")
		return 0
	}
	return n
}

// Float reads a number that a float64 holds: overflow to ±Inf fails.
func (r *Reader) Float() float64 {
	lit, integral := r.number()
	if r.err != nil {
		return 0
	}
	if integral && len(lit) <= 16 {
		// A literal of at most 16 bytes fits an int64, and converting that
		// rounds to nearest even, as ParseFloat does.
		neg := lit[0] == '-'
		if neg {
			lit = lit[1:]
		}
		var n int64
		for _, c := range lit {
			n = n*10 + int64(c-'0')
		}
		x := float64(n)
		if neg {
			x = -x
		}
		return x
	}
	x, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.fail("number out of float64 range")
		return 0
	}
	return x
}

// String reads a string.
func (r *Reader) String() string { return string(r.str()) }

// str reads a string, returning a slice of the document when it has no
// escapes and is valid UTF-8, else a decoded copy as encoding/json decodes
// it: invalid UTF-8 and unpaired surrogates become U+FFFD.
func (r *Reader) str() []byte {
	if !r.expect('"') {
		return nil
	}
	d, start := r.data, r.pos
	i := start
	for i < len(d) {
		c := d[i]
		if c == '"' {
			r.pos = i + 1
			return d[start:i]
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	out := append([]byte(nil), d[start:i]...)
	for {
		if i >= len(d) {
			r.pos = i
			r.fail("unterminated string")
			return nil
		}
		c := d[i]
		switch {
		case c == '"':
			r.pos = i + 1
			return out
		case c < ' ':
			r.pos = i
			r.fail("control character in string")
			return nil
		case c == '\\':
			if i+1 >= len(d) {
				r.pos = i
				r.fail("unterminated string")
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(d[i+2:])
				if rr < 0 {
					r.pos = i
					r.fail("invalid \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						if lo := hex4(d[i+2:]); lo >= 0 {
							if dec := utf16.DecodeRune(rr, lo); dec != utf8.RuneError {
								out = utf8.AppendRune(out, dec)
								i += 6
								continue
							}
						}
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default:
				r.pos = i
				r.fail("invalid escape in string")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			out = utf8.AppendRune(out, rr)
			i += size
		}
	}
}

// key reads a member's key and its colon. A plain key — printable ASCII,
// no escapes, as the Writer writes every key — is a slice of the document,
// read in one scan.
func (r *Reader) key() []byte {
	d, i := r.data, skipWS(r.data, r.pos)
	if i < len(d) && d[i] == '"' {
		j := i + 1
		for j < len(d) && d[j] >= ' ' && d[j] < utf8.RuneSelf && d[j] != '"' && d[j] != '\\' {
			j++
		}
		if j < len(d) && d[j] == '"' {
			if c := skipWS(d, j+1); c < len(d) && d[c] == ':' {
				r.pos = c + 1
				return d[i+1 : j]
			}
		}
	}
	k := r.str()
	r.expect(':')
	return k
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// Raw reads any JSON value and returns its bytes, a slice of the document
// without surrounding whitespace. The value is checked for syntax only.
func (r *Reader) Raw() []byte {
	if r.peek() == 0 && r.err == nil {
		r.fail("unexpected end of document")
	}
	if r.err != nil {
		return nil
	}
	start := r.pos
	end, msg := r.skip(start)
	r.pos = end
	if msg != "" {
		r.fail(msg)
		return nil
	}
	return r.data[start:end]
}

// skip scans the value at data[i:] for syntax alone, without decoding it,
// and returns its end, or msg and where it failed. Its nesting counts
// toward MaxDepth on top of the Reader's. It is one loop over the bytes:
// Raw spans whole snapshot states.
func (r *Reader) skip(i int) (end int, msg string) {
	d := r.data
	n := 0                         // containers open inside the value
	var objs [MaxDepth / 64]uint64 // bit n: container n is an object
	for {
		// A value starts at i, or, in an object, a key before it.
		if i = skipWS(d, i); i >= len(d) {
			return i, "unexpected end of document"
		}
		switch c := d[i]; c {
		case '{', '[':
			if r.depth+n >= MaxDepth {
				return i, "nesting deeper than MaxDepth"
			}
			if c == '{' {
				objs[n/64] |= 1 << (n % 64)
			} else {
				objs[n/64] &^= 1 << (n % 64)
			}
			n++
			if i = skipWS(d, i+1); i < len(d) && d[i] == c+2 { // '}' and ']' are '{' and '[' plus 2
				i++
				n--
				break
			}
			if c == '{' {
				if i, msg = scanKey(d, i); msg != "" {
					return i, msg
				}
			}
			continue
		case '"':
			if i, msg = scanString(d, i); msg != "" {
				return i, msg
			}
		case 't':
			if i, msg = scanLiteral(d, i, "true"); msg != "" {
				return i, msg
			}
		case 'f':
			if i, msg = scanLiteral(d, i, "false"); msg != "" {
				return i, msg
			}
		case 'n':
			if i, msg = scanLiteral(d, i, "null"); msg != "" {
				return i, msg
			}
		default:
			if i, _, msg = scanNumber(d, i); msg != "" {
				return i, msg
			}
		}
		// A value has ended: close containers, then move on to the next
		// member or element.
		for {
			if n == 0 {
				return i, ""
			}
			if i = skipWS(d, i); i >= len(d) {
				return i, "unexpected end of document"
			}
			obj := objs[(n-1)/64]&(1<<((n-1)%64)) != 0
			c := d[i]
			if c == ',' {
				i++
				if obj {
					if i, msg = scanKey(d, skipWS(d, i)); msg != "" {
						return i, msg
					}
				}
				break
			}
			if obj && c != '}' || !obj && c != ']' {
				return i, "want ',' or the container's close"
			}
			i++
			n--
		}
	}
}

// scanKey checks an object key and its colon at d[i:].
func scanKey(d []byte, i int) (end int, msg string) {
	if i >= len(d) || d[i] != '"' {
		return i, "want a key"
	}
	if i, msg = scanString(d, i); msg != "" {
		return i, msg
	}
	if i = skipWS(d, i); i >= len(d) || d[i] != ':' {
		return i, "want ':'"
	}
	return i + 1, ""
}

// scanLiteral checks the keyword lit at d[i:].
func scanLiteral(d []byte, i int, lit string) (end int, msg string) {
	if len(d)-i < len(lit) || string(d[i:i+len(lit)]) != lit {
		return i, "invalid literal"
	}
	return i + len(lit), ""
}

// scanString checks the string at d[i:] (d[i] is its quote) for syntax
// alone and returns its end, or msg and where it failed.
func scanString(d []byte, i int) (end int, msg string) {
	for i++; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			return i + 1, ""
		case c == '\\':
			if i+1 >= len(d) {
				return i, "unterminated string"
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if hex4(d[i+2:]) < 0 {
					return i, "invalid \\u escape"
				}
				i += 5
			default:
				return i, "invalid escape in string"
			}
		case c < ' ':
			return i, "control character in string"
		}
	}
	return i, "unterminated string"
}

// element advances to element i of an array, opening it at 0, and
// reports false at the array's end or on failure.
func (r *Reader) element(i int) bool {
	if i == 0 {
		if !r.open('[') {
			return false
		}
		if r.peek() == ']' {
			r.pos++
			r.depth--
			return false
		}
		return true
	}
	switch r.peek() {
	case ']':
		r.pos++
		r.depth--
		return false
	case ',':
		r.pos++
		return true
	}
	r.expect(']')
	return false
}

// ----------------------------------------------------------------- Codec --

// Codec writes or reads one document through the same calls. A state type
// visits its fields in order, each by a method that takes the field's key
// and a pointer to it:
//
//	func (ps *PacketState) codec(c *statecodec.Codec) {
//		c.Int("flow", &ps.Flow)
//		c.FloatOmit("rate", &ps.Rate)
//		...
//	}
//
// Writing emits each field in call order; an Omit variant leaves out a
// zero value, as omitempty does. Reading takes keys in call order too: a
// field consumes the object's next member only if the key is its own, and
// a field whose key is absent reads as zero (nil for a slice or a pointer).
// If a member is left over at the object's end — members out of order, or
// an unknown or repeated key — the object falls back once to a table of
// its members and the visit runs again over the table, where an unknown or
// repeated key fails. The second visit reads only the members the first
// did not, so every member is decoded once and reading stays linear
// however objects nest.
type Codec struct {
	w       Writer
	r       Reader
	reading bool
	obj     object // the object being read
}

// object is the reading state of one object: in order, the next member's
// key and how many members were read; after a fallback, the table of every
// member.
type object struct {
	start int // offset of the '{'
	key   []byte
	more  bool // key holds a member not yet read
	n     int  // members read in order
	table []member
	cur   int // from a table, the member at found last
	end   int // past the '}', once the table is built
}

type member struct {
	key  []byte
	at   int  // offset of the value
	read bool // a field has read it
}

// maxMembers bounds an object's members when it falls back: no format has
// nearly as many fields, and a repeated key is found by comparing each key
// with those before it.
const maxMembers = 64

// Encode appends the document fn writes for v to b.
func Encode[T any](b []byte, v *T, fn func(*T, *Codec)) ([]byte, error) {
	c := &Codec{w: NewWriter(b)}
	visit(c, v, fn)
	return c.w.Bytes()
}

// Decode reads data into v as one whole document, through fn.
func Decode[T any](data []byte, v *T, fn func(*T, *Codec)) error {
	c := &Codec{r: NewReader(data), reading: true}
	visit(c, v, fn)
	return c.r.Done()
}

// visit writes or reads v as an object whose fields fn visits.
func visit[T any](c *Codec, v *T, fn func(*T, *Codec)) {
	if !c.reading {
		c.w.BeginObject()
		fn(v, c)
		c.w.EndObject()
		return
	}
	outer := c.obj
	if c.open() {
		fn(v, c)
		if c.fallBack() {
			fn(v, c)
		}
		c.close()
	}
	c.obj = outer
}

// open starts reading an object at its first member.
func (c *Codec) open() bool {
	r := &c.r
	if !r.open('{') {
		return false
	}
	c.obj = object{start: r.pos - 1}
	if r.peek() == '}' {
		r.pos++
	} else {
		c.obj.key, c.obj.more = r.key(), true
	}
	return r.err == nil
}

// next moves past the value just read: to the next member in order, or,
// from a table, marks the member read.
func (c *Codec) next() {
	if c.obj.table != nil {
		c.obj.table[c.obj.cur].read = true
		return
	}
	r := &c.r
	c.obj.n++
	switch r.peek() {
	case ',':
		r.pos++
		c.obj.key = r.key()
	case '}':
		r.pos++
		c.obj.more = false
	default:
		r.expect('}')
		c.obj.more = false
	}
}

// fallBack reports whether a member is left over after reading in order,
// and if so builds the object's table, the members read already marked.
func (c *Codec) fallBack() bool {
	if !c.obj.more || c.r.err != nil {
		return false
	}
	r, o := &c.r, &c.obj
	r.pos = o.start + 1
	o.table = make([]member, 0, 8)
	for r.err == nil { // an object falls back only with a member left
		k := r.key()
		for _, m := range o.table {
			if string(m.key) == string(k) {
				r.fail(fmt.Sprintf("repeated key %q", k))
				return false
			}
		}
		if len(o.table) == maxMembers {
			r.fail("object with more members than any format has fields")
			return false
		}
		o.table = append(o.table, member{key: k, at: skipWS(r.data, r.pos), read: len(o.table) < o.n})
		r.Raw()
		if r.peek() != ',' {
			r.expect('}')
			break
		}
		r.pos++
	}
	o.end = r.pos
	return r.err == nil
}

// close ends the object: from a table, every member must have been a
// field's, and reading goes on past the object.
func (c *Codec) close() {
	r := &c.r
	if c.obj.table != nil && r.err == nil {
		for _, m := range c.obj.table {
			if !m.read {
				r.pos = m.at
				r.fail(fmt.Sprintf("unknown key %q", m.key))
				return
			}
		}
		r.pos = c.obj.end
	}
	r.depth--
}

// at reports whether the field key has a member to read now, positioning
// the reader at its value. In order that is the next member; from a table,
// one the first visit did not read.
func (c *Codec) at(key string) bool {
	o := &c.obj
	if o.table == nil {
		return o.more && string(o.key) == key && c.r.err == nil
	}
	for i, m := range o.table {
		if string(m.key) == key && !m.read {
			o.cur, c.r.pos = i, m.at
			return true
		}
	}
	return false
}

// inOrder reports whether an absent field reads as zero now: in order. A
// field the table does not give anew keeps what the first visit read, or
// the zero it set.
func (c *Codec) inOrder() bool { return c.obj.table == nil }

// field codes a scalar field, written by write and read by read.
func field[T any](c *Codec, key string, p *T, write func(*Writer, T), read func(*Reader) T) {
	switch {
	case !c.reading:
		write(c.w.Key(key), *p)
	case c.at(key):
		*p = read(&c.r)
		c.next()
	case c.inOrder():
		var zero T
		*p = zero
	}
}

// The scalar fields. Each Omit variant leaves a zero value out, checked
// before the call: most omitted fields are zero.

func (c *Codec) Int(key string, p *int) { field(c, key, p, (*Writer).Int, (*Reader).Int) }
func (c *Codec) IntOmit(key string, p *int) {
	if c.reading || *p != 0 {
		c.Int(key, p)
	}
}
func (c *Codec) Int64(key string, p *int64) { field(c, key, p, (*Writer).Int64, (*Reader).Int64) }
func (c *Codec) Uint(key string, p *uint64) { field(c, key, p, (*Writer).Uint, (*Reader).Uint) }
func (c *Codec) UintOmit(key string, p *uint64) {
	if c.reading || *p != 0 {
		c.Uint(key, p)
	}
}
func (c *Codec) Float(key string, p *float64) { field(c, key, p, (*Writer).Float, (*Reader).Float) }
func (c *Codec) FloatOmit(key string, p *float64) {
	if c.reading || *p != 0 {
		c.Float(key, p)
	}
}
func (c *Codec) Bool(key string, p *bool) { field(c, key, p, (*Writer).Bool, (*Reader).Bool) }
func (c *Codec) BoolOmit(key string, p *bool) {
	if c.reading || *p {
		c.Bool(key, p)
	}
}
func (c *Codec) String(key string, p *string) { field(c, key, p, (*Writer).String, (*Reader).String) }
func (c *Codec) StringOmit(key string, p *string) {
	if c.reading || *p != "" {
		c.String(key, p)
	}
}

// IntsOmit codes an array of integers, left out when empty.
func (c *Codec) IntsOmit(key string, s *[]int) {
	array(c, key, s, true, func(c *Codec, n *int) {
		if c.reading {
			*n = c.r.Int()
		} else {
			c.w.Int(*n)
		}
	})
}

// Raw codes a nested document verbatim. Reading, *raw is its span of the
// input, checked for syntax only. Writing, write appends it in place when
// non-nil; else *raw is written as it is, and null when empty.
func (c *Codec) Raw(key string, raw *[]byte, write func([]byte) ([]byte, error)) {
	switch {
	case !c.reading:
		c.w.Key(key)
		c.w.raw(*raw, write)
	case c.at(key):
		*raw = c.r.Raw()
		c.next()
	case c.inOrder():
		*raw = nil
	}
}

// RawOmit is Raw, left out when there is nothing to write.
func (c *Codec) RawOmit(key string, raw *[]byte, write func([]byte) ([]byte, error)) {
	if c.reading || write != nil || len(*raw) != 0 {
		c.Raw(key, raw, write)
	}
}

// Null reports whether key holds null, consuming it; writing, it reports
// false. It is for the one format that reads a nil slice written as null.
func (c *Codec) Null(key string) bool {
	if !c.reading || !c.at(key) || c.r.peek() != 'n' {
		return false
	}
	c.r.literal("null")
	c.next()
	return c.r.err == nil
}

// Ignore reads and drops the value of key, which a format no longer
// writes.
func (c *Codec) Ignore(key string) {
	if c.reading && c.at(key) {
		c.r.Raw()
		c.next()
	}
}

// Struct codes the struct *v, whose fields fn visits.
func Struct[T any](c *Codec, key string, v *T, fn func(*T, *Codec)) {
	switch {
	case !c.reading:
		c.w.Key(key)
		visit(c, v, fn)
	case c.at(key):
		visit(c, v, fn)
		c.next()
	case c.inOrder():
		var zero T
		*v = zero
	}
}

// Ptr codes the struct **p, left out when nil.
func Ptr[T any](c *Codec, key string, p **T, fn func(*T, *Codec)) {
	switch {
	case !c.reading:
		if *p != nil {
			c.w.Key(key)
			visit(c, *p, fn)
		}
	case c.at(key):
		*p = new(T)
		visit(c, *p, fn)
		c.next()
	case c.inOrder():
		*p = nil
	}
}

// Slice codes an array of structs, each visited by fn.
func Slice[T any](c *Codec, key string, s *[]T, fn func(*T, *Codec)) {
	array(c, key, s, false, func(c *Codec, v *T) { visit(c, v, fn) })
}

// array codes *s under key, each element by elem; omit leaves an empty
// slice out. A nil slice is written as null, as encoding/json writes it; an
// empty array reads as an empty, non-nil slice, as encoding/json reads it.
func array[T any](c *Codec, key string, s *[]T, omit bool, elem func(c *Codec, v *T)) {
	switch {
	case !c.reading:
		if omit && len(*s) == 0 {
			return
		}
		c.w.Key(key)
		if *s == nil {
			c.w.Null()
			return
		}
		c.w.BeginArray()
		for i := range *s {
			elem(c, &(*s)[i])
		}
		c.w.EndArray()
	case c.at(key):
		out := []T{}
		for c.r.element(len(out)) {
			var zero T
			out = append(out, zero)
			elem(c, &out[len(out)-1])
		}
		*s = out
		c.next()
	case c.inOrder():
		*s = nil
	}
}

// SliceOmit is Slice, left out when empty.
func SliceOmit[T any](c *Codec, key string, s *[]T, fn func(*T, *Codec)) {
	array(c, key, s, true, func(c *Codec, v *T) { visit(c, v, fn) })
}
