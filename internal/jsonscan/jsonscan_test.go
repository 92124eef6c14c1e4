package jsonscan

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzArrays holds the array readers to encoding/json: whatever a
// Reader accepts as a whole input, json.Unmarshal must accept into the
// same type and decode to an equal slice, nil-ness included. The seeds
// run as a table under plain go test.
func FuzzArrays(f *testing.F) {
	for _, seed := range []string{
		`[1,-2,0,-0,999999999999999999]`, ` [ 1 ,2 ] `, `[]`, `[true,false]`,
		`[1000000000000000000]`, `[1.0]`, `[1e2]`, `[01]`, `[-]`, `[1,]`,
		`[1,null]`, `null`, `[tru]`, `[1] x`, `["1"]`, `[-9223372036854775808]`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		check := func(read func(r *Reader) any, want any) {
			r := NewReader([]byte(src))
			got := read(r)
			if r.peek() != 0 {
				r.fail() // json.Unmarshal rejects what follows the value
			}
			if r.Failed() {
				return
			}
			if err := json.Unmarshal([]byte(src), want); err != nil {
				t.Fatalf("Reader accepted %q, encoding/json rejects it: %v", src, err)
			}
			if want := reflect.ValueOf(want).Elem().Interface(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: Reader reads %#v, encoding/json %#v", src, got, want)
			}
		}
		check(func(r *Reader) any { return r.Int64s() }, new([]int64))
		check(func(r *Reader) any { return r.Ints() }, new([]int))
		check(func(r *Reader) any { return r.Bools() }, new([]bool))
	})
}

// TestFailLatches: after a failure every read returns a zero value and
// the Reader stays failed, so callers check Failed once.
func TestFailLatches(t *testing.T) {
	r := NewReader([]byte(`{"a":x,"b":[1,2]}`))
	var got []int64
	r.Object([]string{"a", "b"}, func(key string) {
		if key == "a" {
			r.Int64()
		} else {
			got = r.Int64s()
		}
	})
	if !r.Failed() || got != nil {
		t.Fatalf("Failed() = %v, later read %v; want a latched failure", r.Failed(), got)
	}
	if r.Str() != "" || r.Int64() != 0 || r.Bool() || r.null() {
		t.Error("reads after a failure returned values")
	}
}
