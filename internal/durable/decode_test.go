package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"policyflow/internal/canon"
)

// differential checks a canonical decoder against encoding/json on data
// (see the policy package's twin): when the decoder accepts data,
// json.Unmarshal must accept it too and yield a reflect.DeepEqual value.
func differential[T any](t *testing.T, data []byte, fast func(*canon.Decoder, *T)) bool {
	t.Helper()
	var got, want T
	if !canon.Decode(data, func(d *canon.Decoder) { fast(d, &got) }) {
		return false
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("canonical decode accepted %q, json.Unmarshal: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical decode of %q:\n got  %+v\n want %+v", data, got, want)
	}
	return true
}

// canonCheck runs the differential check of the record (which even) or the
// archive (which odd) decoder.
func canonCheck(t *testing.T, which uint8, data []byte) bool {
	if which%2 == 0 {
		return differential(t, data, decodeRecordFields)
	}
	return differential(t, data, decodeArchiveFields)
}

// canonSeeds returns the record bodies of the golden WAL segments and of
// FuzzWALRecord's seeds (which 0), and the golden archives compacted as a
// donor serves them (which 1).
func canonSeeds(tb testing.TB) (which []uint8, data [][]byte) {
	logs, err := filepath.Glob(filepath.Join(goldenDir, "*", "wal-*.log"))
	if err != nil || len(logs) == 0 {
		tb.Fatalf("golden WAL segments: %v %v", logs, err)
	}
	for _, path := range logs {
		seg, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		for len(seg) >= recordHeaderSize {
			n := int(binary.LittleEndian.Uint32(seg))
			which, data = append(which, 0), append(data, seg[recordHeaderSize:recordHeaderSize+n])
			seg = seg[recordHeaderSize+n:]
		}
	}
	for _, rec := range []Record{
		{Seq: 1, Op: "advise_transfers", Data: json.RawMessage(`[{"requestId":"r1"}]`)},
		{Seq: 2, Op: "report_transfers", Data: json.RawMessage(`{"transferIds":["t-1"],"x":"a\u003cb\n"}`)},
		{Seq: 3, Op: "advise_cleanups"},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			tb.Fatal(err)
		}
		which, data = append(which, 0), append(data, b)
	}
	for _, name := range []string{"archive.json", "archive_delta.json"} {
		indented, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			tb.Fatal(err)
		}
		var wire bytes.Buffer
		if err := json.Compact(&wire, indented); err != nil {
			tb.Fatal(err)
		}
		which, data = append(which, 1), append(data, append(wire.Bytes(), '\n'))
	}
	return which, data
}

// TestCanonicalDecodeTakesMarshal: the record and archive decoders take
// what this package writes — every golden record body and both golden
// archives as a donor serves them — without falling back to
// encoding/json.
func TestCanonicalDecodeTakesMarshal(t *testing.T) {
	which, data := canonSeeds(t)
	for i := range which {
		if !canonCheck(t, which[i], data[i]) {
			t.Errorf("canonical decode refused %s", data[i])
		}
	}
}

// FuzzCanonicalDecode is the differential check of the WAL record and
// archive decoders against encoding/json.
func FuzzCanonicalDecode(f *testing.F) {
	which, data := canonSeeds(f)
	for i := range which {
		f.Add(which[i], data[i])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) { canonCheck(t, which, data) })
}
