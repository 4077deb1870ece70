package canon

import (
	"encoding/json"
	"reflect"
	"testing"
)

type sample struct {
	S   string          `json:"s"`
	I   int             `json:"i"`
	U   uint64          `json:"u"`
	F   float64         `json:"f"`
	B   bool            `json:"b"`
	R   json.RawMessage `json:"r"`
	L   []string        `json:"l"`
	Sub *sample         `json:"sub"`
}

var sampleFields []Field[sample]

func init() {
	sampleFields = []Field[sample]{
		{Name: "s", Decode: func(d *Decoder, v *sample) { v.S = d.String() }},
		{Name: "i", Decode: func(d *Decoder, v *sample) { v.I = d.Int() }},
		{Name: "u", Decode: func(d *Decoder, v *sample) { v.U = d.Uint64() }},
		{Name: "f", Decode: func(d *Decoder, v *sample) { v.F = d.Float64() }},
		{Name: "b", Decode: func(d *Decoder, v *sample) { v.B = d.Bool() }},
		{Name: "r", Decode: func(d *Decoder, v *sample) { v.R = d.Raw() }},
		{Name: "l", Decode: func(d *Decoder, v *sample) { v.L = Strings(d) }},
		{Name: "sub", Decode: func(d *Decoder, v *sample) { v.Sub = Ptr(d, sampleFields) }},
	}
}

func decodeSample(d *Decoder, v *sample) { Object(d, v, sampleFields) }

// TestDecodeSubset: the canonical decoder takes what json.Marshal writes
// and yields json.Unmarshal's value; everything outside the subset is
// refused, and Unmarshal then falls back to encoding/json.
func TestDecodeSubset(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{`{}`, true},
		{`{}` + "\n", true},
		{`{"s":"a/ü","i":-9223372036854775808,"u":18446744073709551615,"f":-1.5e-7,"b":true}`, true},
		{`{"i":0,"f":0,"b":false,"l":[],"sub":{"s":"x","l":["a","b"]}}`, true},
		{`{"r":{"a":[1,-0.5,"x<\"\\",true,false,null,{}],"b":[]}}`, true},
		{`{"r":null}`, true},
		{`{"r":"\ud800"}`, true},
		{` {}`, false},               // whitespace before the value
		{`{"s":"a", "i":1}`, false},  // whitespace inside
		{`{"S":"a"}`, false},         // key case
		{`{"s":"a","s":"b"}`, false}, // repeated key
		{`{"x":1}`, false},           // unknown key
		{`{"s":"a\nb"}`, false},      // escape in a decoded string
		{"{\"s\":\"\xff\"}", false},  // invalid UTF-8
		{`{"s":null}`, false},        // null
		{`{"sub":null}`, false},      // null
		{`{"i":1.0}`, false},         // fraction into an int
		{`{"i":1e3}`, false},         // exponent into an int
		{`{"i":01}`, false},          // leading zero
		{`{"i":9223372036854775808}`, false},
		{`{"u":-1}`, false},
		{`{"u":18446744073709551616}`, false},
		{`{"f":1e400}`, false},
		{`{"f":.5}`, false},
		{`{"f":1.}`, false},
		{`{"b":tru}`, false},
		{`{"r":[1,]}`, false},
		{`{"r":{"a"}}`, false},
		{`{"r":"\x"}`, false},
		{`{"r":"\u12"}`, false},
		{`{"r":[}`, false},
		{`{"l":["a",]}`, false},
		{`{"s":"a"`, false},
		{`{"s":"a"}x`, false},
		{`{"s":"a"}{}`, false},
		{``, false},
	} {
		var got sample
		ok := Decode([]byte(tc.in), func(d *Decoder) { decodeSample(d, &got) })
		if ok != tc.want {
			t.Errorf("Decode(%q) = %v, want %v", tc.in, ok, tc.want)
			continue
		}
		var want, via sample
		werr := json.Unmarshal([]byte(tc.in), &want)
		if ok && (werr != nil || !reflect.DeepEqual(got, want)) {
			t.Errorf("Decode(%q) = %+v, json.Unmarshal = %+v (%v)", tc.in, got, want, werr)
		}
		if err := Unmarshal([]byte(tc.in), &via, decodeSample); (err == nil) != (werr == nil) || !reflect.DeepEqual(via, want) {
			t.Errorf("Unmarshal(%q) = %+v (%v), json.Unmarshal = %+v (%v)", tc.in, via, err, want, werr)
		}
	}
}
