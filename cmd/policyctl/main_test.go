package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"policyflow/internal/admit"
	"policyflow/internal/durable"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

func testClient(t *testing.T) (*policyhttp.Client, *policy.Service) {
	t.Helper()
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(policyhttp.NewServer(svc, nil))
	t.Cleanup(ts.Close)
	return policyhttp.NewClient(ts.URL), svc
}

func TestAdviseFromFile(t *testing.T) {
	c, svc := testClient(t)
	specs := []policy.TransferSpec{{
		RequestID:  "r1",
		WorkflowID: "wf1",
		SourceURL:  "gsiftp://src.example.org/f1",
		DestURL:    "file://dst.example.org/f1",
	}}
	data, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := advise(c, path); err != nil {
		t.Fatalf("advise: %v", err)
	}
	if snap := svc.Snapshot(); snap.InFlight != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Missing and malformed files error cleanly.
	if err := advise(c, filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := advise(c, bad); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestCleanupCommand(t *testing.T) {
	c, svc := testClient(t)
	adv, err := c.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf1",
		SourceURL: "gsiftp://s.example.org/f", DestURL: "file://d.example.org/f",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if err := cleanup(c, "wf1", []string{"file://d.example.org/f"}); err != nil {
		t.Fatalf("cleanup: %v", err)
	}
	if snap := svc.Snapshot(); snap.PendingCleanups != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestDumpRestoreCommands(t *testing.T) {
	c, svc := testClient(t)
	if _, err := c.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf1",
		SourceURL: "gsiftp://s.example.org/f", DestURL: "file://d.example.org/f",
	}}); err != nil {
		t.Fatal(err)
	}
	if err := dump(c); err != nil {
		t.Fatalf("dump: %v", err)
	}
	// Round trip a dump through a file into a second service.
	d := svc.ExportState()
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, svc2 := testClient(t)
	if err := restore(c2, path); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if snap := svc2.Snapshot(); snap.InFlight != 1 {
		t.Fatalf("restored snapshot = %+v", snap)
	}
	if err := restore(c2, filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing dump accepted")
	}
}

func TestMetricsCommand(t *testing.T) {
	c, _ := testClient(t)
	adv, err := c.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf1",
		SourceURL: "gsiftp://s.example.org/f", DestURL: "file://d.example.org/f",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 1 {
		t.Fatalf("advice = %+v", adv)
	}
	var out strings.Builder
	if err := metrics(c, &out); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	text := out.String()
	for _, frag := range []string{
		"policy_transfers_advised_total (counter)",
		"Transfers returned for execution.",
		"policy_transfers_advised_total 1",
		"http_request_seconds (histogram)",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("pretty-printed metrics missing %q:\n%s", frag, text)
		}
	}
	// Bucket series are elided from the pretty form.
	if strings.Contains(text, "_bucket{") {
		t.Errorf("pretty-printed metrics leaked bucket series:\n%s", text)
	}
}

// TestMetricsSurfaceAdmission: when the server runs with admission
// control, the policy_admit_* families show up in `policyctl metrics`
// like any other registry family — depth gauges per class, shed counters
// with reasons, and the batch-size histogram summary.
func TestMetricsSurfaceAdmission(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := policyhttp.NewServerWith(svc, nil, reg, nil)
	ctl := policyhttp.NewAdmissionController(svc, admit.Config{MaxQueue: 8})
	ctl.Instrument(reg)
	srv.SetAdmission(ctl)
	t.Cleanup(ctl.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := policyhttp.NewClient(ts.URL, policyhttp.WithRetry(policyhttp.RetryPolicy{MaxAttempts: 1}))

	// One admitted mutation and one armed shed populate all three families.
	if _, err := c.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf1",
		SourceURL: "gsiftp://s.example.org/f", DestURL: "file://d.example.org/f",
	}}); err != nil {
		t.Fatal(err)
	}
	ctl.FailNext(1)
	if _, err := c.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r2", WorkflowID: "wf1",
		SourceURL: "gsiftp://s.example.org/f2", DestURL: "file://d.example.org/f2",
	}}); !policyhttp.IsBusy(err) {
		t.Fatalf("armed advise err = %v, want busy", err)
	}

	var out strings.Builder
	if err := metrics(c, &out); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	text := out.String()
	for _, frag := range []string{
		"policy_admit_depth (gauge)",
		`policy_admit_depth{class="mutate"}`,
		"policy_admit_shed_total (counter)",
		`policy_admit_shed_total{class="mutate",reason="injected"} 1`,
		"policy_admit_batch_size (histogram)",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("pretty-printed metrics missing %q:\n%s", frag, text)
		}
	}
}

func TestShowState(t *testing.T) {
	c, _ := testClient(t)
	if err := showState(c); err != nil {
		t.Fatalf("showState: %v", err)
	}
}

func TestLeasesCommand(t *testing.T) {
	// Against a lease-disabled service the command says so instead of
	// printing an empty table.
	c, _ := testClient(t)
	var out strings.Builder
	if err := leases(c, &out); err != nil {
		t.Fatalf("leases (disabled): %v", err)
	}
	if !strings.Contains(out.String(), "leases disabled") {
		t.Fatalf("disabled output = %q", out.String())
	}

	// With leases on, an advise registers the workflow as a holder and the
	// listing shows its deadline and holdings.
	cfg := policy.DefaultConfig()
	cfg.LeaseTTL = 30
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(policyhttp.NewServer(svc, nil))
	t.Cleanup(ts.Close)
	c = policyhttp.NewClient(ts.URL)
	if _, err := c.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf1",
		SourceURL: "gsiftp://s.example.org/f", DestURL: "file://d.example.org/f",
	}}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := leases(c, &out); err != nil {
		t.Fatalf("leases: %v", err)
	}
	text := out.String()
	for _, frag := range []string{
		"clock 0.0, ttl 30.0s, 1 lease(s)",
		"wf1",
		"deadline 30.0",
		"in-progress 1",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("leases output missing %q:\n%s", frag, text)
		}
	}
}

// durableClient backs the test server with a real durable store so the
// snapshot command exercises the full WAL path.
func durableClient(t *testing.T) (*policyhttp.Client, *policy.Service, string) {
	t.Helper()
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ps, _, err := durable.OpenPolicyStore(dir, svc, durable.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	srv := policyhttp.NewServer(svc, nil)
	srv.SetDurable(ps)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return policyhttp.NewClient(ts.URL), svc, dir
}

// TestSnapshotCommandRoundTrip snapshots a durable service via the CLI
// path, then proves the dump/restore pair round-trips the same state into
// a second service byte-for-byte.
func TestSnapshotCommandRoundTrip(t *testing.T) {
	c, svc, dir := durableClient(t)
	if _, err := c.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf1",
		SourceURL: "gsiftp://s.example.org/f", DestURL: "file://d.example.org/f",
	}}); err != nil {
		t.Fatal(err)
	}
	if err := snapshot(c); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// The snapshot landed in the data directory.
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("snapshot files = %v, %v", matches, err)
	}

	// dump → file → restore into a fresh (non-durable) service.
	d, err := c.Dump()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, svc2 := testClient(t)
	if err := restore(c2, path); err != nil {
		t.Fatalf("restore: %v", err)
	}
	want, _ := json.Marshal(svc.ExportState())
	got, _ := json.Marshal(svc2.ExportState())
	if string(want) != string(got) {
		t.Fatalf("round trip diverged:\n want %s\n got  %s", want, got)
	}

	// Against a memory-only server the command reports the 501 cleanly.
	if err := snapshot(c2); err == nil {
		t.Error("snapshot against non-durable server succeeded")
	}
}

// TestExplainCommand is the acceptance check for decision provenance: it
// reproduces the quickstart example's transfer batch (threshold 10,
// default 4 streams, the third file requesting 8) and requires `policyctl
// explain` to render the exact rule-firing chain behind the greedy-trimmed
// stream grant, straight from the server's decision ring.
func TestExplainCommand(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = 10
	cfg.DefaultStreams = 4
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(policyhttp.NewServer(svc, nil))
	t.Cleanup(ts.Close)
	c := policyhttp.NewClient(ts.URL)

	specs := []policy.TransferSpec{
		{RequestID: "r1", WorkflowID: "wf1",
			SourceURL: "gsiftp://data.example.org/input/a.dat",
			DestURL:   "file://cluster.example.org/scratch/a.dat"},
		{RequestID: "r2", WorkflowID: "wf1",
			SourceURL: "gsiftp://data.example.org/input/b.dat",
			DestURL:   "file://cluster.example.org/scratch/b.dat"},
		{RequestID: "r3", WorkflowID: "wf1", RequestedStreams: 8,
			SourceURL: "gsiftp://data.example.org/input/c.dat",
			DestURL:   "file://cluster.example.org/scratch/c.dat"},
	}
	adv, err := c.AdviseTransfers(specs)
	if err != nil {
		t.Fatal(err)
	}
	var granted int
	var transferID string
	for _, tr := range adv.Transfers {
		if tr.RequestID == "r3" {
			granted, transferID = tr.Streams, tr.ID
		}
	}
	if granted == 0 {
		t.Fatalf("r3 not advised: %+v", adv.Transfers)
	}

	var buf strings.Builder
	if err := explain(c, &buf, "wf1", "c.dat"); err != nil {
		t.Fatalf("explain: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "advise_transfers") || !strings.Contains(out, "rules fired, in order:") {
		t.Fatalf("explain output missing decision header:\n%s", out)
	}

	// The rendered chain must be the service's own record, rule for rule,
	// in firing order with saliences intact.
	var rec *policy.DecisionRecord
	for _, r := range svc.Decisions(0) {
		if r.Op == policy.OpAdviseTransfers {
			r := r
			rec = &r
		}
	}
	if rec == nil {
		t.Fatal("no advise decision record on the server")
	}
	if len(rec.RulesFired) == 0 {
		t.Fatalf("decision record lists no rule firings: %+v", rec)
	}
	pos := -1
	for i, f := range rec.RulesFired {
		line := fmt.Sprintf("%2d. %s (salience %d)", i+1, f.Rule, f.Salience)
		j := strings.Index(out, line)
		if j < 0 {
			t.Fatalf("explain output missing firing %q:\n%s", line, out)
		}
		if j < pos {
			t.Fatalf("firing %q rendered out of order:\n%s", line, out)
		}
		pos = j
	}
	// The chain behind the grant: defaulting for r1/r2, the greedy
	// allocation that trimmed r3's request against the threshold.
	fired := make(map[string]bool, len(rec.RulesFired))
	for _, f := range rec.RulesFired {
		fired[f.Rule] = true
	}
	for _, rule := range []string{"transfer-default-streams", "greedy-allocate", "transfer-create-group"} {
		if !fired[rule] {
			t.Errorf("rule %s missing from the recorded chain: %+v", rule, rec.RulesFired)
		}
	}
	grantLine := fmt.Sprintf("advised: %d stream(s)", granted)
	if !strings.Contains(out, grantLine) || !strings.Contains(out, transferID) {
		t.Fatalf("explain output does not show the grant (%q, %s):\n%s", grantLine, transferID, out)
	}
	// Greedy trimming is actually visible: 4 + 4 leaves 2 of the 10.
	if granted != 2 {
		t.Fatalf("r3 granted %d streams, want 2 under threshold 10", granted)
	}

	// A second workflow re-requesting a staged file gets a suppression
	// why-chain.
	ids := make([]string, len(adv.Transfers))
	for i, tr := range adv.Transfers {
		ids[i] = tr.ID
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: ids}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdviseTransfers([]policy.TransferSpec{
		{RequestID: "r4", WorkflowID: "wf2",
			SourceURL: "gsiftp://data.example.org/input/a.dat",
			DestURL:   "file://cluster.example.org/scratch/a.dat"},
	}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := explain(c, &buf, "wf2", "a.dat"); err != nil {
		t.Fatalf("explain wf2: %v", err)
	}
	if !strings.Contains(buf.String(), "suppressed: already-staged") {
		t.Fatalf("suppression why-chain missing:\n%s", buf.String())
	}

	// Unknown files explain to an explicit empty answer, not an error.
	buf.Reset()
	if err := explain(c, &buf, "wf1", "zz.dat"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no decision records") {
		t.Fatalf("empty explain output: %q", buf.String())
	}
}
