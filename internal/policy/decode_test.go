package policy

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"policyflow/internal/bundle"
	"policyflow/internal/canon"
)

// differential checks a canonical decoder against encoding/json on data:
// when the decoder accepts data, json.Unmarshal must accept it too and
// yield a reflect.DeepEqual value. It reports whether the decoder
// accepted.
func differential[T any](fast func(*canon.Decoder, *T)) func(*testing.T, []byte) bool {
	return func(t *testing.T, data []byte) bool {
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
}

// canonCases lists, per logged op, the differential check of its
// payload's canonical decoder and a sample payload (import_state's comes
// from the dump golden).
var canonCases = []struct {
	op     string
	check  func(*testing.T, []byte) bool
	sample any
}{
	{OpAdviseTransfers, differential(list(transferSpecFields)), []TransferSpec{{RequestID: "r1", WorkflowID: "wf1",
		JobID: "j1", ClusterID: "c1", SourceURL: "gsiftp://a.example.org/f", DestURL: "file://b.example.org/f",
		SizeBytes: 1 << 40, RequestedStreams: 4, Priority: -2}, {RequestID: "r2", WorkflowID: "wf1"}}},
	{OpReportTransfers, differential(object(completionReportFields)), CompletionReport{TransferIDs: []string{"t-1", "t-2"},
		FailedIDs: []string{"t-3"}, Timings: []TransferTiming{{TransferID: "t-1", Seconds: 1.25e-3}}}},
	{OpAdviseCleanups, differential(list(cleanupSpecFields)), []CleanupSpec{{RequestID: "c", WorkflowID: "wf1", FileURL: "file://b/f"}}},
	{OpReportCleanups, differential(object(cleanupReportFields)), CleanupReport{CleanupIDs: []string{}}},
	{OpSetThreshold, differential(object(thresholdOpFields)), ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3}},
	{OpImportState, differential(decodeStateDumpPtr), nil},
	{OpRenewLease, differential(object(leaseOpFields)), LeaseOp{WorkflowID: "wf-ü"}},
	{OpAdvanceClock, differential(object(clockOpFields)), ClockOp{Now: 12.5}},
	{OpActivateBundle, differential(object(bundleOpFields)), BundleOp{Bundle: &bundle.Bundle{SchemaVersion: 1, Version: "b2",
		Algorithm: "balanced", DefaultStreams: 4, MinStreams: 1, DefaultThreshold: 50, ClusterFactor: 2,
		PairThresholds: []bundle.PairThreshold{{SourceHost: "a", DestHost: "b", Max: 8}},
		Priority:       &bundle.Priority{BoostFactor: 1.5, ReduceFactor: 0.5}}}},
	{OpBumpEpoch, differential(object(epochOpFields)), EpochOp{Epoch: 1<<64 - 1}},
}

// canonSeeds returns every case's sample payload as json.Marshal writes
// it, with its case index; import_state gets the dump golden's JSON.
func canonSeeds(tb testing.TB) (which []uint8, data [][]byte) {
	golden, err := os.ReadFile("testdata/dump.golden")
	if err != nil {
		tb.Fatal(err)
	}
	for i, c := range canonCases {
		if c.sample == nil {
			for _, line := range bytes.Split(golden, []byte("\n")) {
				if bytes.HasPrefix(line, []byte("{")) {
					which, data = append(which, uint8(i)), append(data, line)
				}
			}
			continue
		}
		b, err := json.Marshal(c.sample)
		if err != nil {
			tb.Fatal(err)
		}
		which, data = append(which, uint8(i)), append(data, b)
	}
	return which, data
}

// TestCanonicalDecodeTakesMarshal: every op has a canonical decoder, and
// each takes its payload as json.Marshal writes it, so replay and resync
// decode without reflection.
func TestCanonicalDecodeTakesMarshal(t *testing.T) {
	var ops []string
	for _, c := range canonCases {
		ops = append(ops, c.op)
	}
	if !reflect.DeepEqual(ops, OpNames()) {
		t.Fatalf("canonical cases %v, want one per op %v", ops, OpNames())
	}
	which, data := canonSeeds(t)
	for i := range which {
		if c := canonCases[which[i]]; !c.check(t, data[i]) {
			t.Errorf("%s: canonical decode refused %s", c.op, data[i])
		}
	}
}

// FuzzCanonicalDecode is the differential check of the op payload and
// StateDump decoders against encoding/json: which picks the op, and any
// input the canonical decoder accepts must decode to the same value
// through json.Unmarshal.
func FuzzCanonicalDecode(f *testing.F) {
	which, data := canonSeeds(f)
	for i := range which {
		f.Add(which[i], data[i])
	}
	f.Add(uint8(5), []byte(`{}`))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		canonCases[int(which)%len(canonCases)].check(t, data)
	})
}
