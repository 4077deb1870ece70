package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"policyflow/internal/bundle"
	"policyflow/internal/obs"
)

const (
	srcBase = "gsiftp://futuregrid.tacc.example.org/data"
	dstBase = "file://obelix.isi.example.org/scratch"
)

func spec(i int, wf string) TransferSpec {
	return TransferSpec{
		RequestID:  fmt.Sprintf("req-%d", i),
		WorkflowID: wf,
		JobID:      fmt.Sprintf("stage_in_%d", i),
		SourceURL:  fmt.Sprintf("%s/f%03d.dat", srcBase, i),
		DestURL:    fmt.Sprintf("%s/f%03d.dat", dstBase, i),
		SizeBytes:  100 << 20,
	}
}

func newGreedy(t *testing.T, threshold, defaultStreams int) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DefaultThreshold = threshold
	cfg.DefaultStreams = defaultStreams
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestAdviseAssignsDefaultsGroupsAndStreams(t *testing.T) {
	s := newGreedy(t, 50, 4)
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1"), spec(2, "wf1")})
	if err != nil {
		t.Fatalf("AdviseTransfers: %v", err)
	}
	if len(adv.Transfers) != 2 || len(adv.Removed) != 0 {
		t.Fatalf("advice = %d transfers, %d removed", len(adv.Transfers), len(adv.Removed))
	}
	for _, tr := range adv.Transfers {
		if tr.Streams != 4 {
			t.Errorf("streams = %d, want default 4", tr.Streams)
		}
		if tr.GroupID == "" {
			t.Error("missing group ID")
		}
		if tr.SourceHost != "futuregrid.tacc.example.org" || tr.DestHost != "obelix.isi.example.org" {
			t.Errorf("hosts = %s -> %s", tr.SourceHost, tr.DestHost)
		}
		if tr.ID == "" {
			t.Error("missing service-assigned ID")
		}
	}
	if adv.Transfers[0].GroupID != adv.Transfers[1].GroupID {
		t.Error("same host pair must share a group ID")
	}
}

func TestAdviseGreedySequenceMatchesPaper(t *testing.T) {
	// 20 transfers, threshold 50, default 8: grants 8x6, 2, 1x13.
	s := newGreedy(t, 50, 8)
	var specs []TransferSpec
	for i := 0; i < 20; i++ {
		specs = append(specs, spec(i, "wf1"))
	}
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatalf("AdviseTransfers: %v", err)
	}
	total := 0
	byReq := map[string]int{}
	for _, tr := range adv.Transfers {
		total += tr.Streams
		byReq[tr.RequestID] = tr.Streams
	}
	if total != 63 {
		t.Fatalf("total streams = %d, want 63", total)
	}
	// FIFO fairness: earliest submitted requests receive full grants.
	for i := 0; i < 6; i++ {
		if got := byReq[fmt.Sprintf("req-%d", i)]; got != 8 {
			t.Errorf("req-%d streams = %d, want 8", i, got)
		}
	}
	if got := byReq["req-6"]; got != 2 {
		t.Errorf("req-6 streams = %d, want 2", got)
	}
	for i := 7; i < 20; i++ {
		if got := byReq[fmt.Sprintf("req-%d", i)]; got != 1 {
			t.Errorf("req-%d streams = %d, want 1", i, got)
		}
	}
}

func TestCompletionFreesStreamsForNewTransfers(t *testing.T) {
	s := newGreedy(t, 10, 8)
	adv1, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if adv1.Transfers[0].Streams != 8 {
		t.Fatalf("first grant = %d", adv1.Transfers[0].Streams)
	}
	// Second transfer sees 8/10 allocated: grants remaining 2.
	adv2, err := s.AdviseTransfers([]TransferSpec{spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if adv2.Transfers[0].Streams != 2 {
		t.Fatalf("second grant = %d, want 2", adv2.Transfers[0].Streams)
	}
	// Complete the first: its 8 streams are released.
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv1.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	adv3, err := s.AdviseTransfers([]TransferSpec{spec(3, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if adv3.Transfers[0].Streams != 8 {
		t.Fatalf("post-completion grant = %d, want 8", adv3.Transfers[0].Streams)
	}
}

func TestDuplicateInBatchSuppressed(t *testing.T) {
	s := newGreedy(t, 50, 4)
	a := spec(1, "wf1")
	b := spec(1, "wf1")
	b.RequestID = "req-dup"
	adv, err := s.AdviseTransfers([]TransferSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 1 || len(adv.Removed) != 1 {
		t.Fatalf("advice = %d transfers, %d removed", len(adv.Transfers), len(adv.Removed))
	}
	if adv.Removed[0].Reason != "duplicate-in-batch" {
		t.Fatalf("reason = %q", adv.Removed[0].Reason)
	}
	if adv.Removed[0].RequestID != "req-dup" {
		t.Fatalf("the later request must be the suppressed one, got %q", adv.Removed[0].RequestID)
	}
}

func TestDuplicateInProgressSuppressed(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	// Same destination requested again while the first is in flight.
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 0 || len(adv.Removed) != 1 {
		t.Fatalf("advice = %+v", adv)
	}
	if adv.Removed[0].Reason != "in-progress" {
		t.Fatalf("reason = %q", adv.Removed[0].Reason)
	}
}

func TestDuplicateAlreadyStagedSuppressed(t *testing.T) {
	s := newGreedy(t, 50, 4)
	adv1, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv1.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	// Another workflow requests the same staged file.
	adv2, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv2.Transfers) != 0 || len(adv2.Removed) != 1 {
		t.Fatalf("advice = %+v", adv2)
	}
	if adv2.Removed[0].Reason != "already-staged" {
		t.Fatalf("reason = %q", adv2.Removed[0].Reason)
	}
	// With every request suppressed, the list is empty, not absent.
	if doc, err := json.Marshal(adv2); err != nil || !bytes.HasPrefix(doc, []byte(`{"transfers":[],`)) {
		t.Fatalf("advice encodes as %s (%v), want an empty transfers list", doc, err)
	}
}

func TestFailedTransferAllowsRetry(t *testing.T) {
	s := newGreedy(t, 50, 4)
	adv1, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportTransfers(CompletionReport{FailedIDs: []string{adv1.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	// Retry must not be treated as a duplicate.
	adv2, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv2.Transfers) != 1 || len(adv2.Removed) != 0 {
		t.Fatalf("retry advice = %+v", adv2)
	}
	// Streams were released by the failure: full default grant again.
	if adv2.Transfers[0].Streams != 4 {
		t.Fatalf("retry streams = %d", adv2.Transfers[0].Streams)
	}
}

func TestCleanupSuppressedWhileOtherWorkflowUsesFile(t *testing.T) {
	s := newGreedy(t, 50, 4)
	// wf1 stages the file; wf2's duplicate request associates wf2 with it.
	adv1, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv1.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf2")}); err != nil {
		t.Fatal(err)
	}
	fileURL := spec(1, "").DestURL
	// wf1 wants to delete the file, but wf2 is still using it.
	cadv, err := s.AdviseCleanups([]CleanupSpec{{RequestID: "c1", WorkflowID: "wf1", FileURL: fileURL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cadv.Cleanups) != 0 || len(cadv.Removed) != 1 {
		t.Fatalf("cleanup advice = %+v", cadv)
	}
	if cadv.Removed[0].Reason != "in-use" {
		t.Fatalf("reason = %q", cadv.Removed[0].Reason)
	}
	// With every request suppressed, the list is empty, not absent.
	if doc, err := json.Marshal(cadv); err != nil || !bytes.HasPrefix(doc, []byte(`{"cleanups":[],`)) {
		t.Fatalf("advice encodes as %s (%v), want an empty cleanups list", doc, err)
	}
	// wf2 cleans up: it is the last user, so the cleanup is approved.
	cadv2, err := s.AdviseCleanups([]CleanupSpec{{RequestID: "c2", WorkflowID: "wf2", FileURL: fileURL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cadv2.Cleanups) != 1 {
		t.Fatalf("cleanup advice = %+v", cadv2)
	}
	// After the cleanup completes, the file may be staged again.
	if _, err := s.ReportCleanups(CleanupReport{CleanupIDs: []string{cadv2.Cleanups[0].ID}}); err != nil {
		t.Fatal(err)
	}
	adv3, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf3")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv3.Transfers) != 1 {
		t.Fatalf("post-cleanup staging suppressed: %+v", adv3)
	}
}

func TestDuplicateCleanupSuppressed(t *testing.T) {
	s := newGreedy(t, 50, 4)
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	fileURL := spec(1, "").DestURL
	c1, err := s.AdviseCleanups([]CleanupSpec{{RequestID: "c1", WorkflowID: "wf1", FileURL: fileURL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Cleanups) != 1 {
		t.Fatalf("first cleanup = %+v", c1)
	}
	// Second cleanup request for the same file while the first is in
	// progress: suppressed as duplicate.
	c2, err := s.AdviseCleanups([]CleanupSpec{{RequestID: "c2", WorkflowID: "wf1", FileURL: fileURL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Cleanups) != 0 || len(c2.Removed) != 1 || c2.Removed[0].Reason != "duplicate" {
		t.Fatalf("second cleanup = %+v", c2)
	}
}

// TestInstrumentBackfillsCleanupCounters: a service instrumented after it
// has already advised cleanups — as NewServerWith instruments after WAL
// replay — starts its cleanup counters from those counts, as it does its
// transfer counters, instead of from 0.
func TestInstrumentBackfillsCleanupCounters(t *testing.T) {
	s := newGreedy(t, 50, 4)
	fileURL := spec(1, "").DestURL
	for _, id := range []string{"c1", "c2"} {
		if _, err := s.AdviseCleanups([]CleanupSpec{{RequestID: id, WorkflowID: "wf1", FileURL: fileURL}}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)
	got := map[string][]obs.Sample{}
	for _, f := range reg.Snapshot() {
		got[f.Name] = f.Samples
	}
	if adv := got["policy_cleanups_advised_total"]; len(adv) != 1 || adv[0].Value != 1 {
		t.Fatalf("policy_cleanups_advised_total = %+v, want 1", adv)
	}
	supp := got["policy_cleanup_suppressions_total"]
	if len(supp) != 1 || supp[0].Labels["reason"] != "duplicate" || supp[0].Value != 1 {
		t.Fatalf("policy_cleanup_suppressions_total = %+v, want {duplicate: 1}", supp)
	}
}

func TestBalancedAllocationPerCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoBalanced
	cfg.DefaultThreshold = 40
	cfg.DefaultStreams = 8
	cfg.ClusterFactor = 2 // per-cluster share = 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var specs []TransferSpec
	for i := 0; i < 4; i++ {
		sp := spec(i, "wf1")
		sp.ClusterID = "cluster-A"
		specs = append(specs, sp)
	}
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster A share is 20: grants 8, 8, 4, 1.
	got := map[string]int{}
	for _, tr := range adv.Transfers {
		got[tr.RequestID] = tr.Streams
	}
	want := map[string]int{"req-0": 8, "req-1": 8, "req-2": 4, "req-3": 1}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %d, want %d", k, got[k], w)
		}
	}
	// Cluster B arrives later but has its own reserved share: full grants.
	var bspecs []TransferSpec
	for i := 10; i < 12; i++ {
		sp := spec(i, "wf1")
		sp.ClusterID = "cluster-B"
		bspecs = append(bspecs, sp)
	}
	badv, err := s.AdviseTransfers(bspecs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range badv.Transfers {
		if tr.Streams != 8 {
			t.Errorf("cluster-B %s = %d streams, want 8 (not starved)", tr.RequestID, tr.Streams)
		}
	}
}

func TestBalancedReleaseRestoresClusterShare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoBalanced
	cfg.DefaultThreshold = 16
	cfg.DefaultStreams = 8
	cfg.ClusterFactor = 2 // share 8 per cluster
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec(1, "wf1")
	sp.ClusterID = "A"
	adv, err := s.AdviseTransfers([]TransferSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Transfers[0].Streams != 8 {
		t.Fatalf("first grant = %d", adv.Transfers[0].Streams)
	}
	sp2 := spec(2, "wf1")
	sp2.ClusterID = "A"
	adv2, err := s.AdviseTransfers([]TransferSpec{sp2})
	if err != nil {
		t.Fatal(err)
	}
	if adv2.Transfers[0].Streams != 1 {
		t.Fatalf("saturated-cluster grant = %d, want 1", adv2.Transfers[0].Streams)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	sp3 := spec(3, "wf1")
	sp3.ClusterID = "A"
	adv3, err := s.AdviseTransfers([]TransferSpec{sp3})
	if err != nil {
		t.Fatal(err)
	}
	if adv3.Transfers[0].Streams != 7 {
		t.Fatalf("post-release grant = %d, want 7 (8 share - 1 still held)", adv3.Transfers[0].Streams)
	}
}

func TestPassthroughAllocatesRequested(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoNone
	cfg.DefaultStreams = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec(1, "wf1")
	sp.RequestedStreams = 99
	adv, err := s.AdviseTransfers([]TransferSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Transfers[0].Streams != 99 {
		t.Fatalf("passthrough streams = %d, want 99", adv.Transfers[0].Streams)
	}
}

func TestPriorityOrdersAdvice(t *testing.T) {
	s := newGreedy(t, 50, 4)
	lo := spec(1, "wf1")
	lo.Priority = 1
	hi := spec(2, "wf1")
	hi.Priority = 10
	adv, err := s.AdviseTransfers([]TransferSpec{lo, hi})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Transfers[0].RequestID != "req-2" {
		t.Fatalf("high-priority transfer not first: %+v", adv.Transfers)
	}
}

func TestPerPairThresholdOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	activateEdited(t, s, "pinned-pair", func(b *bundle.Bundle) {
		b.PairThresholds = []bundle.PairThreshold{
			{SourceHost: "futuregrid.tacc.example.org", DestHost: "obelix.isi.example.org", Max: 4},
		}
	})
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Transfers[0].Streams != 4 {
		t.Fatalf("streams = %d, want 4 (pair threshold)", adv.Transfers[0].Streams)
	}
}

func TestSetThreshold(t *testing.T) {
	s := newGreedy(t, 50, 8)
	if err := s.SetThreshold("futuregrid.tacc.example.org", "obelix.isi.example.org", 2); err != nil {
		t.Fatal(err)
	}
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Transfers[0].Streams != 2 {
		t.Fatalf("streams = %d, want 2", adv.Transfers[0].Streams)
	}
	if err := s.SetThreshold("a", "b", 0); err == nil {
		t.Fatal("threshold 0 accepted")
	}
}

func TestSnapshot(t *testing.T) {
	s := newGreedy(t, 50, 4)
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1"), spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.InFlight != 2 || snap.TrackedFiles != 2 || snap.StagedResources != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Pairs) != 1 || snap.Pairs[0].Allocated != 8 || snap.Pairs[0].Threshold != 50 {
		t.Fatalf("pairs = %+v", snap.Pairs)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID, adv.Transfers[1].ID}}); err != nil {
		t.Fatal(err)
	}
	snap = s.Snapshot()
	if snap.InFlight != 0 || snap.StagedResources != 2 {
		t.Fatalf("post-completion snapshot = %+v", snap)
	}
	if snap.Pairs[0].Allocated != 0 {
		t.Fatalf("streams not released: %+v", snap.Pairs)
	}
	adviced, suppressed := s.Stats()
	if adviced != 2 || suppressed != 0 {
		t.Fatalf("stats = %d, %d", adviced, suppressed)
	}
}

func TestValidationErrors(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.AdviseTransfers(nil); !errors.Is(err, ErrEmptyRequest) {
		t.Fatalf("want ErrEmptyRequest, got %v", err)
	}
	if _, err := s.AdviseTransfers([]TransferSpec{{}}); err == nil {
		t.Fatal("missing URLs accepted")
	}
	if _, err := s.AdviseCleanups(nil); !errors.Is(err, ErrEmptyRequest) {
		t.Fatalf("want ErrEmptyRequest, got %v", err)
	}
	if _, err := s.AdviseCleanups([]CleanupSpec{{}}); err == nil {
		t.Fatal("missing file URL accepted")
	}
	cfg := DefaultConfig()
	cfg.DefaultThreshold = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero threshold accepted")
	}
	cfg = DefaultConfig()
	cfg.Algorithm = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestReportUnknownIDsIgnored(t *testing.T) {
	s := newGreedy(t, 50, 4)
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{"t-bogus"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportCleanups(CleanupReport{CleanupIDs: []string{"c-bogus"}}); err != nil {
		t.Fatal(err)
	}
	// Events must not linger in memory.
	snap := s.Snapshot()
	if snap.InFlight != 0 || snap.TrackedFiles != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestHostOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"gsiftp://host.example.org:2811/path/file", "host.example.org"},
		{"http://h1/x", "h1"},
		{"file://nfs.local/scratch/f", "nfs.local"},
		{"opaque-id", "opaque-id"},
		{"host/path", "host"},
		{"", ""},
	}
	for _, c := range cases {
		if got := HostOf(c.in); got != c.want {
			t.Errorf("HostOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAdviceSortedByGroupAndURL(t *testing.T) {
	s := newGreedy(t, 500, 4)
	// Two host pairs interleaved; advice groups them together.
	var specs []TransferSpec
	for i := 0; i < 3; i++ {
		a := spec(i, "wf1")
		specs = append(specs, a)
		b := spec(i+100, "wf1")
		b.SourceURL = fmt.Sprintf("gsiftp://other.example.org/data/f%03d.dat", i)
		specs = append(specs, b)
	}
	adv, err := s.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 6 {
		t.Fatalf("transfers = %d", len(adv.Transfers))
	}
	// All transfers of a group are contiguous.
	seen := map[string]bool{}
	last := ""
	for _, tr := range adv.Transfers {
		if tr.GroupID != last {
			if seen[tr.GroupID] {
				t.Fatalf("group %s not contiguous in %+v", tr.GroupID, adv.Transfers)
			}
			seen[tr.GroupID] = true
			last = tr.GroupID
		}
	}
}

// TestSeqIDMatchesSprintf pins seqID to the fmt.Sprintf verbs it replaced
// for transfer, cleanup and group IDs: zero, one, the largest padded
// value, and values wider than the pad, which must print in full.
func TestSeqIDMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		prefix string
		width  int
	}{{"t-", 8}, {"c-", 8}, {"g-", 4}} {
		for _, n := range []int{0, 1, 9, 10, 9999, 10000, 12345, 99999999, 100000000, 1234567890123} {
			if got, want := seqID(c.prefix, n, c.width), fmt.Sprintf("%s%0*d", c.prefix, c.width, n); got != want {
				t.Errorf("seqID(%q, %d, %d) = %q, want %q", c.prefix, n, c.width, got, want)
			}
		}
	}
}
