package policyhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// hasThreshold reports whether svc's exported state carries the marker
// threshold the delta tests plant out-of-band.
func hasThreshold(svc *policy.Service, src, dst string, max int) bool {
	for _, th := range svc.ExportState().Thresholds {
		if th.Src == src && th.Dst == dst && th.Max == max {
			return true
		}
	}
	return false
}

// pullLog is a client transport recording every archive pull: the query
// it sent and the shape of the archive it got back.
type pullLog struct {
	mu    sync.Mutex
	pulls []pull
}

type pull struct {
	query    string
	delta    bool
	snapshot bool
	tail     int
}

func (l *pullLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/state/archive" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var arch durable.Archive
	json.Unmarshal(body, &arch)
	l.mu.Lock()
	l.pulls = append(l.pulls, pull{req.URL.RawQuery, arch.Delta, arch.Snapshot != nil, len(arch.Tail)})
	l.mu.Unlock()
	return resp, nil
}

func (l *pullLog) last(t *testing.T) pull {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pulls) == 0 {
		t.Fatal("no archive pull recorded")
	}
	return l.pulls[len(l.pulls)-1]
}

// TestStandbyDeltaSyncAppliesOnlyTail proves the steady-state sync is
// O(delta), not O(state): once a full restore has set the standby's
// replica cursor, the next pull asks for the records after it and the
// donor ships only those — no snapshot — while the standby still converges
// byte for byte. A write made on the standby itself drops the cursor (its
// state is no longer a position in the donor's log), and so does Reset:
// either way the next pull is a full restore that erases the stray write.
func TestStandbyDeltaSyncAppliesOnlyTail(t *testing.T) {
	_, donorSvc, donorClient, ps := durableReplica(t, t.TempDir())
	defer ps.Close()
	local, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pulls := &pullLog{}
	s, err := NewStandbySyncer(local, NewClient(donorClient.base, WithTransport(pulls)), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	advise := func(i int) {
		t.Helper()
		if _, err := donorClient.AdviseTransfers([]policy.TransferSpec{testSpec(i, "wf1")}); err != nil {
			t.Fatal(err)
		}
	}
	converged := func(what string) {
		t.Helper()
		if got, want := dumpJSON(t, local), dumpJSON(t, donorSvc); got != want {
			t.Fatalf("%s: standby diverged from donor:\n donor   %s\n standby %s", what, want, got)
		}
	}

	advise(1)
	if _, err := donorClient.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	advise(2)
	if err := s.SyncOnce(); err != nil {
		t.Fatalf("initial full sync: %v", err)
	}
	if p := pulls.last(t); p.query != "" || p.delta || !p.snapshot || p.tail != 1 {
		t.Fatalf("first pull = %+v, want a full archive: snapshot + 1 record", p)
	}
	converged("full sync")
	if seq, ok := local.ReplicaCursor(donorClient.base); !ok || seq != ps.LastSeq() {
		t.Fatalf("cursor after full sync = %d (ok %v), want the donor's last record %d", seq, ok, ps.LastSeq())
	}

	advise(3)
	advise(4)
	if err := s.SyncOnce(); err != nil {
		t.Fatalf("delta sync: %v", err)
	}
	if p := pulls.last(t); p.query == "" || !p.delta || p.snapshot || p.tail != 2 {
		t.Fatalf("second pull = %+v, want a delta after the cursor: 2 records, no snapshot", p)
	}
	converged("delta sync")

	// A write on the standby itself drops the cursor.
	if _, err := local.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "mark", DestHost: "er", Max: 7}); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.ReplicaCursor(donorClient.base); ok {
		t.Fatal("a local write left the replica cursor in place")
	}
	if err := s.SyncOnce(); err != nil {
		t.Fatalf("sync after a local write: %v", err)
	}
	if p := pulls.last(t); p.delta || !p.snapshot {
		t.Fatalf("pull after a local write = %+v, want a full restore", p)
	}
	if hasThreshold(local, "mark", "er", 7) {
		t.Fatal("the full restore kept a write the donor never had")
	}
	converged("restore after a local write")

	// Reset forces the full path even with a valid cursor.
	s.Reset()
	if err := s.SyncOnce(); err != nil {
		t.Fatalf("post-reset full sync: %v", err)
	}
	if p := pulls.last(t); p.delta || !p.snapshot {
		t.Fatalf("pull after Reset = %+v, want a full restore", p)
	}
	if syncs, failures := s.Stats(); syncs != 4 || failures != 0 {
		t.Fatalf("stats = (%d, %d), want (4, 0)", syncs, failures)
	}
}

// TestStandbyRunActiveGateResetsCursor: while Active reports false (the
// server is serving as primary), Run must skip syncing, and the writes it
// serves meanwhile drop the replica cursor — state moved outside the
// syncer, so the next sync after reactivation has to be a full restore.
func TestStandbyRunActiveGateResetsCursor(t *testing.T) {
	_, _, donorClient, ps := durableReplica(t, t.TempDir())
	defer ps.Close()
	local, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStandbySyncer(local, donorClient, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Feeding the gate from a channel makes each tick's gate check a
	// rendezvous: the next send can only be received after the previous
	// tick's whole iteration (including the cursor reset) completed.
	gate := make(chan bool)
	s.Active = func() bool { return <-gate }
	ticks := make(chan time.Time)
	s.Ticks = ticks
	synced := make(chan error, 8)
	s.OnSync = func(err error) { synced <- err }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)

	if _, err := donorClient.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	ticks <- time.Time{}
	gate <- true
	if err := <-synced; err != nil {
		t.Fatalf("priming sync: %v", err)
	}

	// The server acts as primary for a while: the marker stands in for
	// writes applied outside the syncer.
	if _, err := local.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "mark", DestHost: "er", Max: 7}); err != nil {
		t.Fatal(err)
	}
	ticks <- time.Time{}
	gate <- false // skipped: no OnSync

	ticks <- time.Time{}
	gate <- true
	if err := <-synced; err != nil {
		t.Fatalf("post-reactivation sync: %v", err)
	}
	// Exactly one OnSync arrived: the gated tick synced nothing.
	if syncs, failures := s.Stats(); syncs != 2 || failures != 0 {
		t.Fatalf("stats = (%d, %d), want (2, 0) — the inactive tick must not sync", syncs, failures)
	}
	// The reactivation sync was a full restore, not a tail replay: the
	// primary-era marker is gone.
	if hasThreshold(local, "mark", "er", 7) {
		t.Fatal("reactivation sync took the delta path: Active gate did not reset the cursor")
	}
}
