// Package canon decodes the JSON this program writes about itself — WAL
// records, op payloads, state dumps, archives — in one pass over the bytes
// and without reflection.
//
// It accepts only the canonical form encoding/json writes: no whitespace
// inside the value, object keys spelled exactly as their field tags and
// each at most once, strings without escapes and in valid UTF-8, no null,
// numbers that fit their field, and nothing after the value but the
// newline a json.Encoder ends it with. A decode that meets anything else
// reports the input as not canonical, and the caller decodes it again with
// encoding/json, which stays the reference for what every input means:
// whenever Decode accepts an input, json.Unmarshal accepts it too and
// yields an equal value (the fuzz targets of the callers check this).
// Raw values are the one exception to the escape rule: they are validated
// and returned as they stand, so escapes inside them are kept.
package canon

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Decoder reads one canonical value from a byte slice. It fails sticky:
// after the first byte outside the canonical form every read returns a
// zero value, and Decode reports the failure at the end.
type Decoder struct {
	data []byte
	pos  int
	bad  bool
}

// Decode runs fn over data and reports whether data held one canonical
// value that fn consumed entirely.
func Decode(data []byte, fn func(*Decoder)) bool {
	d := Decoder{data: data}
	fn(&d)
	for ; !d.bad && d.pos < len(data); d.pos++ {
		if c := data[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return !d.bad
}

// Unmarshal decodes data into v, with fast when data is canonical and
// with json.Unmarshal otherwise; v starts from its zero value either way.
func Unmarshal[T any](data []byte, v *T, fast func(*Decoder, *T)) error {
	if Decode(data, func(d *Decoder) { fast(d, v) }) {
		return nil
	}
	var zero T
	*v = zero
	return json.Unmarshal(data, v)
}

func (d *Decoder) fail() { d.bad, d.pos = true, len(d.data) }

// next consumes c, or fails.
func (d *Decoder) next(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	d.fail()
	return false
}

// peek reports whether the next byte is c, consuming it if so.
func (d *Decoder) peek(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// Field decodes the member named Name of an object into a T.
type Field[T any] struct {
	Name   string
	Decode func(d *Decoder, v *T)
}

// Object decodes an object whose members are all named in fields (at most
// 64), each at most once, into v. Members absent from the input leave
// their fields as they are.
func Object[T any](d *Decoder, v *T, fields []Field[T]) {
	if !d.next('{') || d.peek('}') {
		return
	}
	var seen uint64
	guess := 0 // canonical members come in field order
	for !d.bad {
		key := d.str()
		i := guess
		if i >= len(fields) || fields[i].Name != string(key) {
			for i = 0; i < len(fields) && fields[i].Name != string(key); i++ {
			}
		}
		if i == len(fields) || seen&(1<<i) != 0 || !d.next(':') {
			d.fail()
			return
		}
		seen |= 1 << i
		guess = i + 1
		fields[i].Decode(d, v)
		if !d.peek(',') {
			d.next('}')
			return
		}
	}
}

// Ptr decodes an object into a new T.
func Ptr[T any](d *Decoder, fields []Field[T]) *T {
	v := new(T)
	Object(d, v, fields)
	return v
}

// slice decodes an array, each element with elem. An empty array is an
// empty slice, not nil, as with encoding/json.
func slice[T any](d *Decoder, elem func(*Decoder, *T)) []T {
	out := []T{}
	if !d.next('[') || d.peek(']') {
		return out
	}
	for !d.bad {
		if len(out) == cap(out) {
			// Double, where append grows a long slice by a quarter: a
			// state-sized array is copied fewer times on its way up.
			out = slices.Grow(out, max(len(out), 1))
		}
		out = out[:len(out)+1]
		elem(d, &out[len(out)-1])
		if !d.peek(',') {
			d.next(']')
			break
		}
	}
	return out
}

// Objects decodes an array of objects, each as Object does.
func Objects[T any](d *Decoder, fields []Field[T]) []T {
	return slice(d, func(d *Decoder, v *T) { Object(d, v, fields) })
}

// Strings decodes an array of strings.
func Strings(d *Decoder) []string {
	return slice(d, func(d *Decoder, s *string) { *s = d.String() })
}

// str consumes a string and returns its bytes, which alias the input.
func (d *Decoder) str() []byte {
	if !d.next('"') {
		return nil
	}
	start, ascii := d.pos, true
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			s := d.data[start:d.pos]
			d.pos++
			if !ascii && !utf8.Valid(s) {
				d.fail()
			}
			return s
		case c == '\\' || c < 0x20:
			d.fail()
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.fail()
	return nil
}

// String decodes a string.
func (d *Decoder) String() string { return string(d.str()) }

// Bool decodes true or false.
func (d *Decoder) Bool() bool {
	rest := d.data[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.pos += 5
	default:
		d.fail()
	}
	return false
}

// digits consumes an unsigned integer literal without leading zeros and
// returns its value, failing past math.MaxUint64 or when a fraction or
// exponent follows.
func (d *Decoder) digits() uint64 {
	start := d.pos
	var n uint64
	for ; d.pos < len(d.data); d.pos++ {
		c := d.data[d.pos]
		if c < '0' || c > '9' {
			break
		}
		if n > (math.MaxUint64-uint64(c-'0'))/10 {
			d.fail()
			return 0
		}
		n = n*10 + uint64(c-'0')
	}
	switch {
	case d.pos == start, d.data[start] == '0' && d.pos-start > 1:
		d.fail()
	case d.pos < len(d.data) && (d.data[d.pos] == '.' || d.data[d.pos] == 'e' || d.data[d.pos] == 'E'):
		d.fail()
	}
	return n
}

// Uint64 decodes a non-negative integer.
func (d *Decoder) Uint64() uint64 { return d.digits() }

// Int64 decodes an integer.
func (d *Decoder) Int64() int64 {
	neg := d.peek('-')
	n := d.digits()
	switch {
	case neg && n <= 1<<63:
		return -int64(n)
	case !neg && n < 1<<63:
		return int64(n)
	}
	d.fail()
	return 0
}

// Int decodes an integer that fits an int.
func (d *Decoder) Int() int {
	n := d.Int64()
	if int64(int(n)) != n {
		d.fail()
		return 0
	}
	return int(n)
}

// number consumes a number literal and returns its bytes.
func (d *Decoder) number() []byte {
	start := d.pos
	d.peek('-')
	if d.peek('0') {
		if d.pos < len(d.data) && isDigit(d.data[d.pos]) {
			d.fail()
		}
	} else {
		d.run()
	}
	if d.peek('.') {
		d.run()
	}
	if d.peek('e') || d.peek('E') {
		if !d.peek('+') {
			d.peek('-')
		}
		d.run()
	}
	if d.bad {
		return nil
	}
	return d.data[start:d.pos]
}

// run consumes one or more digits.
func (d *Decoder) run() {
	start := d.pos
	for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
		d.pos++
	}
	if d.pos == start {
		d.fail()
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Float64 decodes a number, as strconv.ParseFloat reads it.
func (d *Decoder) Float64() float64 {
	lit := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail()
		return 0
	}
	return f
}

// maxDepth bounds the nesting Raw follows, well inside encoding/json's.
const maxDepth = 1000

// Raw consumes any JSON value — escapes in its strings included — and
// returns its bytes, which alias the input.
func (d *Decoder) Raw() []byte {
	start := d.pos
	d.skip(0)
	if d.bad {
		return nil
	}
	return d.data[start:d.pos]
}

func (d *Decoder) skip(depth int) {
	if depth > maxDepth || d.pos >= len(d.data) {
		d.fail()
		return
	}
	switch c := d.data[d.pos]; c {
	case '{', '[':
		d.pos++
		end := c + 2 // '}' follows '{' and ']' follows '[' in ASCII
		if d.peek(end) {
			return
		}
		for !d.bad {
			if c == '{' {
				d.rawString()
				d.next(':')
			}
			d.skip(depth + 1)
			if !d.peek(',') {
				d.next(end)
				return
			}
		}
	case '"':
		d.rawString()
	case 't', 'f':
		d.Bool()
	case 'n':
		if len(d.data)-d.pos < 4 || string(d.data[d.pos:d.pos+4]) != "null" {
			d.fail()
			return
		}
		d.pos += 4
	default:
		d.number()
	}
}

// rawString consumes a string whose escapes are well formed.
func (d *Decoder) rawString() {
	if !d.next('"') {
		return
	}
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		d.pos++
		switch {
		case c == '"':
			return
		case c < 0x20:
			d.fail()
			return
		case c == '\\':
			if d.pos >= len(d.data) {
				d.fail()
				return
			}
			e := d.data[d.pos]
			d.pos++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if d.pos >= len(d.data) || !isHex(d.data[d.pos]) {
						d.fail()
						return
					}
					d.pos++
				}
			default:
				d.fail()
				return
			}
		}
	}
	d.fail()
}

func isHex(c byte) bool { return isDigit(c) || (c|0x20) >= 'a' && (c|0x20) <= 'f' }
