package policyhttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"policyflow/internal/policy"
)

// switchableLog is a policy.MutationLog whose appends fail while fail is
// set — a replica whose own disk has gone bad.
type switchableLog struct {
	fail atomic.Bool
	seq  atomic.Uint64
}

func (l *switchableLog) Append(string, any) (uint64, error) {
	if l.fail.Load() {
		return 0, errors.New("disk full")
	}
	return l.seq.Add(1), nil
}

func (l *switchableLog) Sync(uint64) error { return nil }

func dumpJSON(t *testing.T, svc *policy.Service) string {
	t.Helper()
	data, err := json.Marshal(svc.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEveryOpHasOneRoute is the HTTP half of the op-table conformance:
// each logged op is served by exactly one route (the table is keyed by op,
// and the mux refuses a pattern twice), every policy-plane route
// is fenced on a standby — 412 with the epoch stamped, even when the
// request carries the retired X-Policy-Sync marker — and only the two
// replication-plane ops are left open to feed standbys. It is also the
// drift guard between the two readers of a route row: over JSON and XML,
// Client.Execute of every op must return exactly what Service.Execute returns
// on a twin service fed the same payloads.
func TestEveryOpHasOneRoute(t *testing.T) {
	names := policy.OpNames()
	if len(routes) != len(names) {
		t.Errorf("routes cover %d ops, the table has %d", len(routes), len(names))
	}
	_, svc, _, url := fencedServer(t, RoleStandby)
	if _, err := svc.BumpEpoch(3); err != nil {
		t.Fatal(err)
	}
	before := dumpJSON(t, svc)
	var unfenced []string
	for _, op := range names {
		rt, ok := routes[op]
		if !ok {
			t.Errorf("op %s has no route", op)
			continue
		}
		if !rt.fenced {
			unfenced = append(unfenced, op)
			continue
		}
		req, err := http.NewRequest(rt.method, url+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Policy-Sync", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed || resp.Header.Get(EpochHeader) != "3" {
			t.Errorf("%s %s on a standby: status %d, %s %q; want 412 stamped with epoch 3",
				rt.method, rt.path, resp.StatusCode, EpochHeader, resp.Header.Get(EpochHeader))
		}
	}
	if want := []string{policy.OpImportState, policy.OpBumpEpoch}; fmt.Sprint(unfenced) != fmt.Sprint(want) {
		t.Errorf("unfenced ops = %v, want only the replication-plane pair %v", unfenced, want)
	}
	if dumpJSON(t, svc) != before {
		t.Error("a fenced request changed the standby's Policy Memory")
	}

	for _, format := range []string{"json", "xml"} {
		t.Run(format, func(t *testing.T) { checkClientMatchesService(t, format == "xml") })
	}
}

// checkClientMatchesService runs one script covering every logged op through
// Client.Execute against a served service and through Execute against its
// twin, requiring identical results, identical refusals and identical
// Policy Memory at the end.
func checkClientMatchesService(t *testing.T, useXML bool) {
	cfg := policy.DefaultConfig()
	cfg.LeaseTTL = 10
	served, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(served, nil))
	defer ts.Close()
	opts := []ClientOption{noSleep()}
	if useXML {
		opts = append(opts, WithXML())
	}
	c := NewClient(ts.URL, opts...)

	type call struct {
		op      string
		payload any
	}
	script := []call{
		{policy.OpBumpEpoch, policy.EpochOp{Epoch: 2}},
		{policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "src.example.org", DestHost: "dst.example.org", Max: 3}},
		{policy.OpAdviseTransfers, []policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1"), testSpec(3, "wf2")}},
		{policy.OpReportTransfers, policy.CompletionReport{TransferIDs: []string{"t-00000001"}, FailedIDs: []string{"t-00000002"}}},
		{policy.OpAdviseCleanups, []policy.CleanupSpec{{RequestID: "c1", WorkflowID: "wf1", FileURL: testSpec(1, "").DestURL}}},
		{policy.OpReportCleanups, policy.CleanupReport{CleanupIDs: []string{"c-00000001", "c-00000099"}}},
		{policy.OpRenewLease, policy.LeaseOp{WorkflowID: "wf2"}},
		{policy.OpAdvanceClock, policy.ClockOp{Now: 100}},
		{policy.OpActivateBundle, policy.BundleOp{Version: policy.BootstrapBundleVersion}},
		{policy.OpAdviseTransfers, []policy.TransferSpec{{RequestID: "bad"}}},
		{policy.OpImportState, twin.ExportState()},
	}
	if !useXML {
		script = append(script,
			call{policy.OpActivateBundle, policy.BundleOp{Doc: []byte(testBundleDoc)}},
			call{policy.OpActivateBundle, policy.BundleOp{Rollback: true}})
	} else if _, err := c.Execute(context.Background(), policy.OpActivateBundle,
		policy.BundleOp{Doc: []byte(testBundleDoc)}); !errors.Is(err, errBundleJSONOnly) {
		t.Errorf("XML bundle document activation: %v, want %v", err, errBundleJSONOnly)
	}
	covered := make(map[string]bool)
	for i, step := range script {
		covered[step.op] = true
		got, gerr := c.Execute(context.Background(), step.op, step.payload)
		want, werr := twin.Execute(context.Background(), step.op, step.payload)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("step %d (%s): client error %v, service error %v", i, step.op, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (%s): client returned %#v, service %#v", i, step.op, got, want)
		}
	}
	for _, op := range policy.OpNames() {
		if !covered[op] {
			t.Errorf("drift guard never calls op %s", op)
		}
	}
	if dumpJSON(t, served) != dumpJSON(t, twin) {
		t.Error("served Policy Memory diverged from the twin's")
	}
	if _, err := c.Execute(context.Background(), "no_such_op", nil); !errors.Is(err, policy.ErrInvalidRequest) {
		t.Errorf("unknown op: %v, want ErrInvalidRequest", err)
	}
	if _, err := c.Execute(context.Background(), policy.OpRenewLease, "wf1"); !errors.Is(err, policy.ErrInvalidRequest) {
		t.Errorf("mistyped payload: %v, want ErrInvalidRequest", err)
	}
}

// grownDonor starts a durable replica whose archive has both halves: a
// snapshot and a tail of every kind of record the test drives.
func grownDonor(t *testing.T) (*policy.Service, *Client) {
	t.Helper()
	_, svc, c, ps := durableReplica(t, t.TempDir())
	t.Cleanup(func() { ps.Close() })
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a.example.org", DestHost: "b.example.org", Max: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Doc: []byte(testBundleDoc)}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.BumpEpoch(4); err != nil {
		t.Fatal(err)
	}
	return svc, c
}

// TestStateApplyRoundTrip: applying a donor's snapshot+tail archive — a
// full sync, the only way an archive is applied — leaves the target
// byte-identical to the donor, tail records of every kind included: into a
// fenced standby (archive replay is replication plane, below the fence) and
// pulled by an XML-mode client (the archive is JSON whatever the client
// prefers).
func TestStateApplyRoundTrip(t *testing.T) {
	donorSvc, donor := grownDonor(t)
	arch, err := donor.Archive()
	if err != nil {
		t.Fatal(err)
	}
	if arch.Snapshot == nil || len(arch.Tail) == 0 {
		t.Fatalf("archive has snapshot=%v tail=%d, want both", arch.Snapshot != nil, len(arch.Tail))
	}
	_, targetSvc, _, _ := fencedServer(t, RoleStandby)
	s, err := NewStandbySyncer(targetSvc, NewClient(donor.base, WithXML()), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SyncOnce(); err != nil {
		t.Fatalf("apply archive: %v", err)
	}
	if got, want := dumpJSON(t, targetSvc), dumpJSON(t, donorSvc); got != want {
		t.Fatalf("target diverged from donor:\n donor  %s\n target %s", want, got)
	}
}

// TestStateApplyRejectsBadArchives: an undecodable snapshot, a tail naming
// an op outside the table and an undecodable payload are all the donor's
// fault — the sync fails with ErrInvalidRequest, not a local-log failure —
// and nothing past the damage is applied.
func TestStateApplyRejectsBadArchives(t *testing.T) {
	for name, body := range map[string]string{
		"bad snapshot": `{"snapshotSeq":1,"snapshot":"not a dump"}`,
		"unknown op":   `{"tail":[{"seq":1,"op":"no-such-op","data":{}},{"seq":2,"op":"advise_transfers","data":[{"requestId":"r","workflowId":"wf","sourceUrl":"gsiftp://a/f","destUrl":"file://b/f"}]}]}`,
		"bad payload":  `{"tail":[{"seq":1,"op":"report_transfers","data":"x"}]}`,
	} {
		donor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body)
		}))
		t.Cleanup(donor.Close)
		local, err := policy.New(policy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStandbySyncer(local, NewClient(donor.URL, noSleep()), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SyncOnce(); !errors.Is(err, policy.ErrInvalidRequest) || errors.Is(err, policy.ErrMutationLog) {
			t.Errorf("%s: sync = %v, want ErrInvalidRequest", name, err)
		}
		if snap := local.Snapshot(); snap.InFlight != 0 || snap.TrackedFiles != 0 {
			t.Errorf("%s: a rejected archive left state behind: %+v", name, snap)
		}
	}
}

// TestStandbySyncSurfacesLocalLogFailure: a standby whose own WAL fails
// mid-tail must fail the sync and must not leave its replica cursor past a
// record it never took — it drops the cursor, so the retry restores in
// full. Swallowing the failure would advance the cursor past a record the
// standby never took, and a later promotion would serve a state missing an
// acknowledged write.
func TestStandbySyncSurfacesLocalLogFailure(t *testing.T) {
	_, donorSvc, donor, ps := durableReplica(t, t.TempDir())
	defer ps.Close()
	local, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wal := &switchableLog{}
	local.SetMutationLog(wal)
	s, err := NewStandbySyncer(local, donor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.ReplicaCursor(donor.base); !ok {
		t.Fatal("a successful sync left no replica cursor")
	}

	for i := 2; i <= 3; i++ {
		if _, err := donor.AdviseTransfers([]policy.TransferSpec{testSpec(i, "wf1")}); err != nil {
			t.Fatal(err)
		}
	}
	wal.fail.Store(true)
	if err := s.SyncOnce(); !errors.Is(err, policy.ErrMutationLog) {
		t.Fatalf("sync with a failing local log = %v, want ErrMutationLog", err)
	}
	if seq, ok := local.ReplicaCursor(donor.base); ok {
		t.Fatalf("a failed apply left the replica cursor at %d", seq)
	}
	if got := len(local.ExportState().Transfers); got != 1 {
		t.Fatalf("standby holds %d transfers, want only the 1 synced before the failure", got)
	}
	wal.fail.Store(false)
	if err := s.SyncOnce(); err != nil {
		t.Fatalf("retry after the disk recovered: %v", err)
	}
	if got, want := dumpJSON(t, local), dumpJSON(t, donorSvc); got != want {
		t.Fatalf("standby did not converge on retry:\n donor   %s\n standby %s", want, got)
	}
}

// TestStatusForUsesSentinelsOnly: only the policy sentinels make a 400. An
// infrastructure error whose text happens to say "required" is still this
// replica's failure, and must stay a 500 so a replicated client marks the
// replica down instead of treating the call as rejected everywhere.
func TestStatusForUsesSentinelsOnly(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{policy.ErrEmptyRequest, http.StatusBadRequest},
		{fmt.Errorf("%w: sourceHost and destHost are required", policy.ErrInvalidRequest), http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", policy.ErrInvalidRequest), http.StatusBadRequest},
		{errors.New("wal: fsync required but the device is gone"), http.StatusInternalServerError},
		{fmt.Errorf("%w: lock required", policy.ErrMutationLog), http.StatusInternalServerError},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%q) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestCancelledRequestIsAbandoned: with no admission controller the op
// runs directly, and a request whose context is already done is abandoned
// before any side effect — the same 408 the admission queue answers, so
// the idempotency cache forgets it and a retry under the same key applies.
func TestCancelledRequestIsAbandoned(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil)
	body := `{"transfers":[{"requestId":"r1","workflowId":"wf1","sourceUrl":"gsiftp://a/f","destUrl":"file://b/f"}]}`
	post := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/transfers", strings.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdempotencyKeyHeader, "k1")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if w := post(dead); w.Code != http.StatusRequestTimeout {
		t.Fatalf("cancelled request: status %d, want 408", w.Code)
	}
	if snap := svc.Snapshot(); snap.InFlight != 0 {
		t.Fatalf("abandoned request left %d transfers in flight", snap.InFlight)
	}
	if w := post(context.Background()); w.Code != http.StatusOK || w.Header().Get(IdempotencyReplayedHeader) != "" {
		t.Fatalf("retry under the same key: status %d replayed=%q, want a fresh 200", w.Code, w.Header().Get(IdempotencyReplayedHeader))
	}
}
