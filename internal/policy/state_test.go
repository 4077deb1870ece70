package policy

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"testing"

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
	dst, err := New(Config{Algorithm: AlgoGreedy, DefaultStreams: 8, MinStreams: 1, DefaultThreshold: 50})
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

func TestStateDumpSerializes(t *testing.T) {
	src, _ := buildBusyService(t)
	dump := src.ExportState()
	j, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON StateDump
	if err := json.Unmarshal(j, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if len(fromJSON.Transfers) != len(dump.Transfers) || len(fromJSON.Resources) != len(dump.Resources) {
		t.Fatalf("JSON round trip lost facts")
	}
	x, err := xml.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	var fromXML StateDump
	if err := xml.Unmarshal(x, &fromXML); err != nil {
		t.Fatal(err)
	}
	if len(fromXML.Transfers) != len(dump.Transfers) || fromXML.NextTransfer != dump.NextTransfer {
		t.Fatalf("XML round trip lost facts")
	}
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
