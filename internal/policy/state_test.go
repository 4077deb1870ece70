package policy

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"flag"
	"fmt"
	"os"
	"testing"

	"policyflow/internal/bundle"
	"policyflow/internal/obs"
)

// buildBusyService creates a service with in-flight transfers, staged
// resources, pending cleanups, and a custom threshold — a representative
// Policy Memory.
func buildBusyService(t *testing.T) (*Service, *TransferAdvice) {
	t.Helper()
	s := newGreedy(t, 50, 8)
	if err := s.SetThreshold("futuregrid.tacc.example.org", "obelix.isi.example.org", 30); err != nil {
		t.Fatal(err)
	}
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1"), spec(2, "wf1"), spec(3, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	// Complete one; leave two in flight.
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	return s, adv
}

func TestExportImportRoundTrip(t *testing.T) {
	src, _ := buildBusyService(t)
	dump := src.ExportState()

	cfg := DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 8
	dst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Execute(context.Background(), OpImportState, dump); err != nil {
		t.Fatal(err)
	}

	a, b := src.Snapshot(), dst.Snapshot()
	if a.InFlight != b.InFlight || a.StagedResources != b.StagedResources ||
		a.TrackedFiles != b.TrackedFiles {
		t.Fatalf("snapshots differ: %+v vs %+v", a, b)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("pairs differ: %v vs %v", a.Pairs, b.Pairs)
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, a.Pairs[i], b.Pairs[i])
		}
	}
}

func TestImportedStateContinuesSemantics(t *testing.T) {
	src, _ := buildBusyService(t)
	dump := src.ExportState()
	dst, err := New(Config{Algorithm: AlgoGreedy, DefaultStreams: 8, DefaultThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Execute(context.Background(), OpImportState, dump); err != nil {
		t.Fatal(err)
	}
	// Duplicate of the staged file: suppressed on the importing service.
	adv, err := dst.AdviseTransfers([]TransferSpec{spec(1, "wf9")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Removed) != 1 || adv.Removed[0].Reason != "already-staged" {
		t.Fatalf("staged-dup advice = %+v", adv)
	}
	// Duplicate of an in-flight transfer: suppressed too.
	adv, err = dst.AdviseTransfers([]TransferSpec{spec(2, "wf9")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Removed) != 1 || adv.Removed[0].Reason != "in-progress" {
		t.Fatalf("in-progress-dup advice = %+v", adv)
	}
	// Ledger continuity: two in-flight transfers hold 8 streams each of
	// the pair's 30-stream threshold. The next request fits in full (8);
	// the one after is trimmed to the remaining 6.
	adv, err = dst.AdviseTransfers([]TransferSpec{spec(10, "wf9")})
	if err != nil {
		t.Fatal(err)
	}
	if got := adv.Transfers[0].Streams; got != 8 {
		t.Fatalf("post-import grant = %d, want 8 (14 of 30 remaining)", got)
	}
	adv2, err := dst.AdviseTransfers([]TransferSpec{spec(11, "wf9")})
	if err != nil {
		t.Fatal(err)
	}
	if got := adv2.Transfers[0].Streams; got != 6 {
		t.Fatalf("trimmed grant = %d, want 6 (threshold 30, 24 held)", got)
	}
	// ID continuity: no collision with pre-dump IDs.
	if adv.Transfers[0].ID <= "t-00000004" {
		t.Fatalf("ID counter regressed: %s", adv.Transfers[0].ID)
	}
	// Completing an imported transfer releases its streams.
	if _, err := dst.ReportTransfers(CompletionReport{TransferIDs: []string{"t-00000002"}}); err != nil {
		t.Fatal(err)
	}
	snap := dst.Snapshot()
	for _, p := range snap.Pairs {
		if p.Allocated < 0 {
			t.Fatalf("negative ledger after imported completion: %+v", p)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/dump.golden from dumpGoldenService")

// dumpGoldenService builds, deterministically, a Policy Memory holding
// every fact type a StateDump carries: leases, an activated bundle that
// selects balanced allocation with two clusters (the compiled-in one is its
// rollback target), a set_threshold override, in-flight transfers with job,
// cluster, priority and requested streams on two host pairs, a staged file
// used by two workflows, and an in-progress cleanup.
func dumpGoldenService(t *testing.T) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 4
	cfg.LeaseTTL = 30
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(op string, req any) any {
		t.Helper()
		res, err := s.Execute(context.Background(), op, req)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return res
	}
	run(OpActivateBundle, BundleOp{Doc: bundleDoc(t, bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          "b1",
		Algorithm:        bundle.AlgoBalanced,
		DefaultStreams:   4,
		MinStreams:       1,
		DefaultThreshold: 50,
		ClusterFactor:    2,
		PairThresholds: []bundle.PairThreshold{
			{SourceHost: "futuregrid.tacc.example.org", DestHost: "asterix.example.org", Max: 40},
		},
	})})
	run(OpBumpEpoch, EpochOp{Epoch: 3})
	run(OpAdvanceClock, ClockOp{Now: 5})
	run(OpSetThreshold, ThresholdOp{SourceHost: "futuregrid.tacc.example.org", DestHost: "obelix.isi.example.org", Max: 30})

	a, b, c := clusterSpec(1, "wf1", "c1"), clusterSpec(2, "wf1", "c2"), clusterSpec(3, "wf1", "c1")
	a.Priority, a.RequestedStreams = 3, 6
	adv := run(OpAdviseTransfers, []TransferSpec{a, b, c}).(*TransferAdvice)
	var staged []string
	for _, tr := range adv.Transfers {
		if tr.RequestID != b.RequestID {
			staged = append(staged, tr.ID)
		}
	}
	run(OpReportTransfers, CompletionReport{TransferIDs: staged})

	// wf2 asks for wf1's staged f001 (suppressed, a second user) and two
	// new files, one on another destination host.
	d, e, f := spec(1, "wf2"), clusterSpec(4, "wf2", "c2"), spec(5, "wf2")
	e.Priority, e.RequestedStreams = 1, 3
	f.DestURL = "gsiftp://asterix.example.org/scratch/f005.dat"
	run(OpAdviseTransfers, []TransferSpec{d, e, f})
	run(OpAdvanceClock, ClockOp{Now: 7.5})

	// wf1 deletes f003, which only it uses.
	run(OpAdviseCleanups, []CleanupSpec{{RequestID: "del-3", WorkflowID: "wf1", FileURL: c.DestURL}})
	return s
}

// dumpEncodings are the two encodings a dump travels in, each with its
// decoder.
var dumpEncodings = []struct {
	name   string
	encode func(any) ([]byte, error)
	decode func([]byte, any) error
}{
	{"json", json.Marshal, json.Unmarshal},
	{"xml", xml.Marshal, xml.Unmarshal},
}

// TestStateDumpGolden pins the bytes of a dump holding every fact type, in
// JSON and in XML, against testdata/dump.golden (-update rewrites it), and
// requires that importing either encoding into a fresh service and
// exporting again gives the same bytes.
func TestStateDumpGolden(t *testing.T) {
	dump := dumpGoldenService(t).ExportState()
	var got bytes.Buffer
	encoded := map[string][]byte{}
	for _, enc := range dumpEncodings {
		b, err := enc.encode(dump)
		if err != nil {
			t.Fatal(err)
		}
		encoded[enc.name] = b
		fmt.Fprintf(&got, "== %s\n%s\n", enc.name, b)
	}
	const path = "testdata/dump.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("dump differs from %s (rerun with -update if intended):\n%s", path, got.Bytes())
	}

	for _, enc := range dumpEncodings {
		var in StateDump
		if err := enc.decode(encoded[enc.name], &in); err != nil {
			t.Fatalf("%s: decode: %v", enc.name, err)
		}
		fresh, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Execute(context.Background(), OpImportState, &in); err != nil {
			t.Fatalf("%s: import: %v", enc.name, err)
		}
		again, err := enc.encode(fresh.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, encoded[enc.name]) {
			t.Errorf("%s: import then export changed the dump:\n got %s\nwant %s", enc.name, again, encoded[enc.name])
		}
	}
}

// FuzzStateDump feeds JSON dump bytes to import_state, seeded with the
// dump golden's JSON. A dump validateDump accepts must import; every
// export of it must pass Verify; and export, import, export must be a
// fixed point, byte for byte.
func FuzzStateDump(f *testing.F) {
	golden, err := os.ReadFile("testdata/dump.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(golden, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("{")) {
			f.Add(line)
		}
	}
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := new(StateDump)
		if json.Unmarshal(data, d) != nil || validateDump(d) != nil {
			return
		}
		var exported [2][]byte
		for i := range exported {
			s, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Execute(context.Background(), OpImportState, d); err != nil {
				t.Fatalf("import %d of an accepted dump: %v", i, err)
			}
			out := s.ExportState()
			if err := out.Verify(); err != nil {
				t.Fatalf("export %d fails Verify: %v", i, err)
			}
			if exported[i], err = json.Marshal(out); err != nil {
				t.Fatal(err)
			}
			d = new(StateDump)
			if err := json.Unmarshal(exported[i], d); err != nil {
				t.Fatalf("export %d does not decode: %v", i, err)
			}
		}
		if !bytes.Equal(exported[0], exported[1]) {
			t.Fatalf("export, import, export is not a fixed point:\n%s\n%s", exported[0], exported[1])
		}
	})
}

func TestImportNil(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.Execute(context.Background(), OpImportState, (*StateDump)(nil)); err == nil {
		t.Fatal("nil dump accepted")
	}
}

func TestImportReplacesExistingMemory(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.AdviseTransfers([]TransferSpec{spec(42, "wfX")}); err != nil {
		t.Fatal(err)
	}
	blank, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(context.Background(), OpImportState, blank.ExportState()); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.InFlight != 0 || snap.TrackedFiles != 0 {
		t.Fatalf("old memory survived import: %+v", snap)
	}
}

// TestImportStateResetsPerReasonCounts: a dump carries the advised and
// suppressed totals but not their per-reason split or the cleanup counts,
// so an import starts those afresh instead of leaving the importer's own
// earlier history in them, and the metrics report the imported state.
func TestImportStateResetsPerReasonCounts(t *testing.T) {
	donor := newGreedy(t, 50, 4)
	if _, err := donor.AdviseTransfers([]TransferSpec{spec(1, "wf1"), spec(2, "wf1")}); err != nil {
		t.Fatal(err)
	}

	s := newGreedy(t, 50, 4)
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)
	dup := spec(1, "wf1")
	dup.RequestID = "req-1-dup"
	if _, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1"), dup}); err != nil {
		t.Fatal(err)
	}
	fileURL := spec(1, "").DestURL
	for _, id := range []string{"c1", "c2"} {
		if _, err := s.AdviseCleanups([]CleanupSpec{{RequestID: id, WorkflowID: "wf1", FileURL: fileURL}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Execute(context.Background(), OpImportState, donor.ExportState()); err != nil {
		t.Fatal(err)
	}

	got := map[string][]obs.Sample{}
	for _, f := range reg.Snapshot() {
		got[f.Name] = f.Samples
	}
	for name, want := range map[string]float64{
		"policy_transfers_advised_total":    2,
		"policy_transfers_suppressed_total": 0,
		"policy_cleanups_advised_total":     0,
	} {
		if smp := got[name]; len(smp) != 1 || smp[0].Value != want {
			t.Errorf("%s = %+v after import, want %v", name, smp, want)
		}
	}
	for _, name := range []string{"policy_suppressions_total", "policy_cleanup_suppressions_total"} {
		for _, smp := range got[name] {
			if smp.Value != 0 {
				t.Errorf("%s keeps the importer's history after import: %+v", name, got[name])
				break
			}
		}
	}
}
