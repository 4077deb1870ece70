package policyhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestPooledDecodeMatchesStreamDecoder: the pooled decoder answers every
// body exactly as a fresh stream decoder over that body alone would — the
// same value and the same error — whatever the bodies before it left
// behind: trailing bytes, a second value, an unknown field, a type error,
// a truncated or empty body.
func TestPooledDecodeMatchesStreamDecoder(t *testing.T) {
	bodies := []string{
		`{"transfers":[{"requestId":"r1","workflowId":"wf","sourceUrl":"s","destUrl":"d"}]}` + "\n",
		`{"transfers":[]} } {"transfers":[{"requestId":"junk"}]}`,
		`{"transfers":[{"requestId":"r2"}]}{"transfers":[{"requestId":"r3"}]}`,
		`{"transfers":[{"requestId":"r4","bogus":1}]}`,
		`{"transfers":{"not":"a list"}}`,
		`{"transfers":[{"requestId":"r5"`,
		``,
		"  \n\t ",
		`"a string"`,
		`  {"transfers":[{"requestId":"r6","sizeBytes":7}]}  ` + "\n\n",
	}
	for _, strict := range []bool{true, false} {
		for round := 0; round < 2; round++ {
			for i, body := range bodies {
				var want, got TransferRequest
				ref := json.NewDecoder(strings.NewReader(body))
				if strict {
					ref.DisallowUnknownFields()
				}
				wantErr := fmt.Sprint(ref.Decode(&want))
				b := getBuffer()
				gotErr := fmt.Sprint(b.decode(bytes.NewReader([]byte(body)), maxBodyBytes, formatJSON, &got, strict))
				b.release()
				if gotErr != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("strict=%v round %d body %d %q:\n got  %+v, %s\n want %+v, %s",
						strict, round, i, body, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
