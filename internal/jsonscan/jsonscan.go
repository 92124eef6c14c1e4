// Package jsonscan reads fixed-shape JSON bodies that are mostly long
// integer arrays, such as the service's /v1/batch body, in one pass over
// the bytes, with no reflection.
//
// It reads a subset of JSON: objects whose keys are exact members of a
// fixed list, each at most once; strings of printable ASCII without
// escapes; integers of at most 18 digits; true, false and null; and
// arrays of those or of objects. On anything else, valid JSON outside
// the subset or malformed input alike, the Reader fails, and the caller
// decodes the same bytes with encoding/json instead. So the subset only
// decides which bodies take the fast path; encoding/json still decides
// what is accepted and how an error reads. Within the subset the two
// decode to equal values, which the callers' differential tests hold
// them to.
package jsonscan

// Reader consumes its input front to back and latches the first
// failure: every read after one returns a zero or empty value, so
// decoding code reads straight-line and checks Failed once at the end.
type Reader struct {
	data   []byte
	pos    int
	failed bool
	elems  []int64 // array element scratch, reused across arrays
}

// NewReader returns a Reader over data. Values it returns never share
// memory with data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Failed reports whether the input left the subset or was malformed.
func (r *Reader) Failed() bool { return r.failed }

func (r *Reader) fail() {
	r.failed = true
	r.pos = len(r.data) // every later read sees the end and fails too
}

// peek skips whitespace and returns the next byte, 0 at the end (a NUL
// byte is never valid there either).
func (r *Reader) peek() byte {
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

func (r *Reader) expect(c byte) {
	if r.peek() != c {
		r.fail()
		return
	}
	r.pos++
}

// literal consumes lit, the rest of a true, false or null literal whose
// first byte peek has already matched.
func (r *Reader) literal(lit string) {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.fail()
		return
	}
	r.pos += len(lit)
}

// Object reads an object whose keys are members of keys, each present
// at most once, calling member with the key to read its value. A null
// value is consumed without calling member: for a field decoded once,
// leaving it zero is what encoding/json does with null for every type
// the subset covers.
func (r *Reader) Object(keys []string, member func(key string)) {
	r.expect('{')
	if r.peek() == '}' {
		r.pos++
		return
	}
	var seen uint64
	for !r.failed {
		i := r.key(keys)
		if i < 0 || seen&(1<<i) != 0 {
			r.fail()
			return
		}
		seen |= 1 << i
		if !r.null() {
			member(keys[i])
		}
		switch r.peek() {
		case ',':
			r.pos++
		case '}':
			r.pos++
			return
		default:
			r.fail()
		}
	}
}

// key reads a member name and its colon, returning its index in keys
// (at most 64 of them), or -1 for a name outside them. Names are matched
// exactly; the case-insensitive matching of encoding/json is left to it.
func (r *Reader) key(keys []string) int {
	name := r.str()
	r.expect(':')
	if r.failed {
		return -1
	}
	for i, k := range keys {
		if string(name) == k {
			return i
		}
	}
	return -1
}

// Array reads an array, calling elem to read each element.
func (r *Reader) Array(elem func()) {
	r.expect('[')
	if r.peek() == ']' {
		r.pos++
		return
	}
	for !r.failed {
		elem()
		switch r.peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			return
		default:
			r.fail()
		}
	}
}

// null consumes a null literal if one is next.
func (r *Reader) null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch r.peek() {
	case 't':
		r.literal("true")
		return !r.failed
	case 'f':
		r.literal("false")
	default:
		r.fail()
	}
	return false
}

// str reads a string of printable ASCII without escapes, returning the
// bytes between the quotes.
func (r *Reader) str() []byte {
	r.expect('"')
	for start := r.pos; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			return r.data[start : r.pos-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			r.fail()
			return nil
		}
	}
	r.fail()
	return nil
}

// Str reads a string.
func (r *Reader) Str() string { return string(r.str()) }

// Int64 reads an integer of at most 18 digits, so it cannot overflow.
// Longer integers, fractions and exponents are left to encoding/json.
func (r *Reader) Int64() int64 {
	r.peek()
	data, p := r.data, r.pos
	neg := p < len(data) && data[p] == '-'
	if neg {
		p++
	}
	start := p
	var v int64
	for ; p < len(data) && data[p]-'0' <= 9; p++ {
		v = v*10 + int64(data[p]-'0')
	}
	n := p - start
	if n == 0 || n > 18 || (n > 1 && data[start] == '0') ||
		(p < len(data) && (data[p] == '.' || data[p]|0x20 == 'e')) {
		r.fail()
		return 0
	}
	r.pos = p
	if neg {
		v = -v
	}
	return v
}

// Int reads an integer that fits an int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.fail()
	}
	return int(v)
}

// scan reads an array of elements with read into the scratch.
func (r *Reader) scan(read func() int64) []int64 {
	r.elems = r.elems[:0]
	r.Array(func() { r.elems = append(r.elems, read()) })
	return r.elems
}

// Int64s reads an array of integers into a slice of exactly its length.
// An empty array gives an empty, non-nil slice, as in encoding/json.
func (r *Reader) Int64s() []int64 {
	elems := r.scan(r.Int64)
	out := make([]int64, len(elems))
	copy(out, elems)
	return out
}

// Ints reads an array of integers that fit an int.
func (r *Reader) Ints() []int {
	elems := r.scan(r.Int64)
	out := make([]int, len(elems))
	for i, v := range elems {
		out[i] = int(v)
		if int64(out[i]) != v {
			r.fail()
		}
	}
	return out
}

// Bools reads an array of booleans.
func (r *Reader) Bools() []bool {
	elems := r.scan(func() int64 {
		if r.Bool() {
			return 1
		}
		return 0
	})
	out := make([]bool, len(elems))
	for i, v := range elems {
		out[i] = v == 1
	}
	return out
}
