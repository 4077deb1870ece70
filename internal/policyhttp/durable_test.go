package policyhttp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// durableReplica starts one policy service persisting to dir, with the
// snapshot/archive endpoints enabled. The returned store is NOT closed
// automatically — crash tests abandon it deliberately.
func durableReplica(t *testing.T, dir string) (*httptest.Server, *policy.Service, *Client, *durable.PolicyStore) {
	t.Helper()
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := durable.OpenPolicyStore(dir, svc, durable.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil)
	srv.SetDurable(ps)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, svc, NewClient(ts.URL), ps
}

// tearWAL appends a partial record frame to the newest WAL segment in
// dir, as a crash mid-append would leave behind.
func tearWAL(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments = %v, %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{150, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 't', 'o', 'r', 'n'})
	f.Close()
}

// TestDurableCrashRecoveryAndResync is the end-to-end reliability
// scenario: a durable primary is killed mid-run (leaving a torn WAL
// record) after its durable standby last synced; the standby is promoted
// and workflow traffic continues there; the old primary restarts from its
// data directory, recovers its pre-crash memory, rejoins as a standby and
// its own syncer — Reset, then SyncOnce over the new primary's snapshot +
// WAL tail archive — brings it back byte-identical. A file staged by the
// first workflow is still suppressed as a duplicate for a second workflow
// on the recovered node.
func TestDurableCrashRecoveryAndResync(t *testing.T) {
	dir0, dir1 := t.TempDir(), t.TempDir()
	ts0, _, c0, _ := durableReplica(t, dir0)
	ts1, svc1, c1, ps1 := durableReplica(t, dir1)
	defer ps1.Close()
	ts0.Config.Handler.(*Server).SetFailover(RolePrimary, c1)
	ts1.Config.Handler.(*Server).SetFailover(RoleStandby, c0)
	rc, err := NewReplicatedClient(c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := NewStandbySyncer(svc1, c0, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	adv, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1"), testSpec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	if err := standby.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	// The primary dies without any shutdown path: its process state is
	// discarded (server closed, store abandoned) and its WAL gains a torn
	// final record. The standby takes over.
	ts0.Close()
	tearWAL(t, dir0)
	if _, err := c1.Promote(); err != nil {
		t.Fatal(err)
	}

	// Workflow traffic continues against the promoted standby.
	adv2, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(3, "wf1")})
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if _, err := rc.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv2.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}

	// Restart the old primary from its data directory. Recovery replays
	// the two pre-crash records (the failover ops never reached this node)
	// and ignores the torn tail.
	svc0b, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps0b, stats, err := durable.OpenPolicyStore(dir0, svc0b, durable.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps0b.Close()
	if stats.Replayed != 2 {
		t.Fatalf("recovery replayed %d records, want 2 (pre-crash advise+report)", stats.Replayed)
	}

	// Snapshot the new primary so the sync exercises the snapshot+tail
	// path rather than an all-tail archive.
	if _, err := c1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(4, "wf1")}); err != nil {
		t.Fatal(err)
	}
	arch, err := c1.Archive()
	if err != nil {
		t.Fatal(err)
	}
	if arch.SnapshotSeq == 0 || arch.Snapshot == nil || len(arch.Tail) == 0 {
		t.Fatalf("donor archive has snapshot=%v tail=%d, want both", arch.Snapshot != nil, len(arch.Tail))
	}

	// The recovered node rejoins as a standby and repairs itself.
	rejoined, err := NewStandbySyncer(svc0b, c1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rejoined.Reset()
	if err := rejoined.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(svc1.ExportState())
	got, _ := json.Marshal(svc0b.ExportState())
	if string(want) != string(got) {
		t.Fatalf("recovered node diverged after sync:\n survivor: %s\n restarted: %s", want, got)
	}

	// Duplicate suppression survives the crash + sync: the file staged by
	// workflow 1 before the crash is removed from workflow 2's list on the
	// recovered node.
	adv3, err := svc0b.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv3.Removed) != 1 || adv3.Removed[0].Reason != "already-staged" {
		t.Fatalf("post-recovery advice = %+v", adv3)
	}
}

// TestMemoryOnlySnapshotAndArchive: a server running without a data
// directory refuses a snapshot with 501, and answers every archive pull,
// with or without a position, with its live dump at position 0 and no
// tail: the full archive a durable donor gives a requester behind its
// compaction.
func TestMemoryOnlySnapshotAndArchive(t *testing.T) {
	_, services, clients := replicaSet(t, 1)
	c := clients[0]
	var se *ServerError
	if _, err := c.SnapshotNow(); !errors.As(err, &se) || se.StatusCode != http.StatusNotImplemented {
		t.Errorf("SnapshotNow without a durable store: %v, want 501", err)
	}
	if _, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	want := dumpJSON(t, services[0])
	for _, delta := range []bool{false, true} {
		arch, _, err := c.archive(7, delta)
		if err != nil {
			t.Fatal(err)
		}
		if arch.Delta || arch.SnapshotSeq != 0 || len(arch.Tail) != 0 || string(arch.Snapshot) != want {
			t.Fatalf("memory-only archive = %+v, want the live dump %s at position 0", arch, want)
		}
	}
}

// opLog records the op names a service logs, in order.
type opLog struct{ ops []string }

func (l *opLog) Append(op string, _ any) (uint64, error) {
	l.ops = append(l.ops, op)
	return uint64(len(l.ops)), nil
}

func (l *opLog) Sync(uint64) error { return nil }

// TestResyncPrefersArchive: a full sync (Reset + SyncOnce) from a durable
// donor restores the archive's snapshot and replays the records logged
// after it one by one into the standby's own log, while a memory-only
// donor's archive is its live dump, one wholesale restore. Either way the
// standby ends byte-identical.
func TestResyncPrefersArchive(t *testing.T) {
	_, durableSvc, durableDonor, ps := durableReplica(t, t.TempDir())
	defer ps.Close()
	_, memSvc, memDonor := replicaPair(t)

	for _, tc := range []struct {
		name     string
		donorSvc *policy.Service
		donor    *Client
		durable  bool
		wantOps  []string
	}{
		{"archive", durableSvc, durableDonor, true, []string{policy.OpImportState, policy.OpReportTransfers}},
		{"memory-only", memSvc, memDonor, false, []string{policy.OpImportState}},
	} {
		adv, err := tc.donor.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")})
		if err != nil {
			t.Fatal(err)
		}
		if tc.durable {
			if _, err := tc.donor.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		// Post-snapshot mutations ride in the archive tail.
		if _, err := tc.donor.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
			t.Fatal(err)
		}

		local, err := policy.New(policy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		wal := &opLog{}
		local.SetMutationLog(wal)
		s, err := NewStandbySyncer(local, tc.donor, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s.Reset()
		if err := s.SyncOnce(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := dumpJSON(t, local), dumpJSON(t, tc.donorSvc); got != want {
			t.Fatalf("%s sync diverged:\n donor: %s\n standby: %s", tc.name, want, got)
		}
		if !reflect.DeepEqual(wal.ops, tc.wantOps) {
			t.Fatalf("%s sync logged %v on the standby, want %v", tc.name, wal.ops, tc.wantOps)
		}
	}
}

// replicaPair returns one memory-only replica (server, service, client).
func replicaPair(t *testing.T) (*httptest.Server, *policy.Service, *Client) {
	t.Helper()
	servers, services, clients := replicaSet(t, 1)
	return servers[0], services[0], clients[0]
}

// TestPromoteCatchesUpByDelta: a promotion's final catch-up ships and logs
// only what the standby has not synced — here one acknowledged advise — and
// never the old primary's state. The new primary's log gains exactly the
// caught-up record and the epoch bump, a few hundred bytes against a state
// of hundreds of kilobytes, and it serves the acknowledged write.
func TestPromoteCatchesUpByDelta(t *testing.T) {
	ts0, svc0, c0, ps0 := durableReplica(t, t.TempDir())
	defer ps0.Close()
	ts1, svc1, c1, ps1 := durableReplica(t, t.TempDir())
	defer ps1.Close()
	pulls := &pullLog{}
	srv1 := ts1.Config.Handler.(*Server)
	ts0.Config.Handler.(*Server).SetFailover(RolePrimary, c1)
	srv1.SetFailover(RoleStandby, NewClient(ts0.URL, noSleep(), WithTransport(pulls)))
	if _, err := svc0.BumpEpoch(1); err != nil {
		t.Fatal(err)
	}
	for base := 0; base < 400; base += 20 {
		specs := make([]policy.TransferSpec, 20)
		for i := range specs {
			specs[i] = testSpec(base+i, "wf-resident")
		}
		if _, err := svc0.AdviseTransfers(specs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c0.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Syncer().SyncOnce(); err != nil {
		t.Fatal(err)
	}
	adv, err := c0.AdviseTransfers([]policy.TransferSpec{testSpec(1000, "wf1")})
	if err != nil {
		t.Fatal(err)
	}

	before := ps1.LastSeq()
	res, err := c1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if !res.CaughtUp || res.Epoch != 2 {
		t.Fatalf("promote = %+v, want caught up at epoch 2", res)
	}
	if p := pulls.last(t); !p.delta || p.snapshot || p.tail != 1 {
		t.Fatalf("catch-up pull = %+v, want a delta of the 1 unsynced record", p)
	}
	logged, err := ps1.ArchiveAfter(before)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	logBytes := 0
	for _, rec := range logged.Tail {
		ops = append(ops, rec.Op)
		logBytes += len(rec.Data)
	}
	if len(ops) != 2 || ops[0] != policy.OpAdviseTransfers || ops[1] != policy.OpBumpEpoch {
		t.Fatalf("promotion logged %v, want [advise_transfers bump_epoch]", ops)
	}
	state := len(dumpJSON(t, svc1))
	if logBytes > 1024 || state < 100*logBytes {
		t.Fatalf("promotion logged %d payload bytes against a %d-byte state", logBytes, state)
	}
	t.Logf("promotion logged %d payload bytes; state is %d bytes", logBytes, state)
	ack, err := c1.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}})
	if err != nil || ack.Matched != 1 {
		t.Fatalf("new primary's ack of the caught-up transfer = %+v, %v", ack, err)
	}
}

// TestPromoteExcludesRunLoop: the server's syncer keeps ticking through a
// promotion. Catch-up, epoch bump and role flip hold the syncer, so no tick
// can land between them (a sync after the bump would restore the old
// primary's state over the new epoch), and once primary the loop idles.
func TestPromoteExcludesRunLoop(t *testing.T) {
	ts0, svc0, c0, ps0 := durableReplica(t, t.TempDir())
	defer ps0.Close()
	ts1, svc1, c1, ps1 := durableReplica(t, t.TempDir())
	defer ps1.Close()
	srv1 := ts1.Config.Handler.(*Server)
	ts0.Config.Handler.(*Server).SetFailover(RolePrimary, c1)
	srv1.SetFailover(RoleStandby, c0)
	if _, err := svc0.BumpEpoch(1); err != nil {
		t.Fatal(err)
	}
	ticks := make(chan time.Time)
	syncer := srv1.Syncer()
	syncer.Ticks = ticks
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go syncer.Run(ctx)
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			case ticks <- time.Time{}:
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := c0.AdviseTransfers([]policy.TransferSpec{testSpec(i, "wf1")}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c1.Promote()
	if err != nil || !res.CaughtUp || res.Epoch != 2 {
		t.Fatalf("promote = %+v, %v; want caught up at epoch 2", res, err)
	}
	close(stop)
	<-ticked
	before, _ := syncer.Stats()
	// Ticks are unbuffered: the second send is received only after the
	// first tick has been handled.
	ticks <- time.Time{}
	ticks <- time.Time{}
	if after, _ := syncer.Stats(); after != before {
		t.Fatalf("the syncer ran %d syncs after its server became primary", after-before)
	}
	if svc1.Epoch() != 2 || len(svc1.ExportState().Transfers) != 20 {
		t.Fatalf("new primary at epoch %d with %d transfers, want 2 and 20", svc1.Epoch(), len(svc1.ExportState().Transfers))
	}
}

// TestRestoreEndpointInstallsSnapshot: POST /v1/state/restore on a durable
// server installs the dump as the server's snapshot instead of logging it —
// the WAL stays empty — and a cold reopen of the data dir recovers it.
func TestRestoreEndpointInstallsSnapshot(t *testing.T) {
	donor, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := donor.AdviseTransfers([]policy.TransferSpec{testSpec(i, "wf")}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	_, svc, c, ps := durableReplica(t, dir)
	if _, err := c.Execute(context.Background(), policy.OpImportState, donor.ExportState()); err != nil {
		t.Fatal(err)
	}
	want := dumpJSON(t, svc)
	if want != dumpJSON(t, donor) {
		t.Fatal("restored server differs from the dump")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments after a restore: %v (%v)", segs, err)
	}
	if data, err := os.ReadFile(segs[0]); err != nil || len(data) != 0 {
		t.Fatalf("restore logged %d bytes into the WAL (%v)", len(data), err)
	}
	ps.Close()
	cold, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps2, stats, err := durable.OpenPolicyStore(dir, cold, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if got := dumpJSON(t, cold); stats.SnapshotSeq != 1 || got != want {
		t.Fatalf("cold reopen from snapshot %d:\n got  %s\n want %s", stats.SnapshotSeq, got, want)
	}
}
