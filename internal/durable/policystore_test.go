package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

func newService(t *testing.T) *policy.Service {
	t.Helper()
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func spec(i int, wf string) policy.TransferSpec {
	return policy.TransferSpec{
		RequestID:  wf + "-r",
		WorkflowID: wf,
		SourceURL:  "gsiftp://src.example.org/f" + string(rune('0'+i)),
		DestURL:    "file://dst.example.org/scratch/f" + string(rune('0'+i)),
	}
}

// dumpJSON renders the full Policy Memory dump for byte-level comparison.
func dumpJSON(t *testing.T, svc *policy.Service) []byte {
	t.Helper()
	data, err := json.Marshal(svc.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tearWALTail appends a partial frame to the newest WAL segment,
// simulating a crash mid-write.
func tearWALTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible header promising 200 bytes, followed by only a few.
	f.Write([]byte{200, 0, 0, 0, 0x13, 0x57, 0x9b, 0xdf, 'p', 'a', 'r'})
	f.Close()
}

// TestCrashRecoveryByteIdentical is the acceptance scenario: run a
// workload, discard all process state (SIGKILL-equivalent) leaving a
// deliberately torn final WAL record, restart from the data directory,
// and require a byte-identical state dump — then verify that a file
// staged by workflow 1 before the crash is still suppressed as a
// duplicate when workflow 2 requests it after recovery.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t)
	ps, stats, err := OpenPolicyStore(dir, svc, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotSeq != 0 || stats.Replayed != 0 {
		t.Fatalf("fresh dir recovery stats = %+v", stats)
	}

	// Workflow 1 stages two files (one completes, one stays in flight),
	// sets a threshold, and requests a cleanup that is left pending.
	adv, err := svc.AdviseTransfers([]policy.TransferSpec{spec(1, "wf1"), spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Transfers) != 2 {
		t.Fatalf("advice = %+v", adv)
	}
	if _, err := svc.ReportTransfers(policy.CompletionReport{
		TransferIDs: []string{adv.Transfers[0].ID},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "src.example.org", DestHost: "dst.example.org", Max: 17}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AdviseCleanups([]policy.CleanupSpec{{
		RequestID: "c1", WorkflowID: "wf1", FileURL: adv.Transfers[0].DestURL,
	}}); err != nil {
		t.Fatal(err)
	}

	before := dumpJSON(t, svc)

	// Crash: the process dies without Close; all in-memory state is
	// dropped and the WAL gains a torn final record.
	tearWALTail(t, dir)

	svc2 := newService(t)
	ps2, stats2, err := OpenPolicyStore(dir, svc2, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if stats2.Replayed != 4 {
		t.Fatalf("replayed %d records, want 4", stats2.Replayed)
	}
	after := dumpJSON(t, svc2)
	if !bytes.Equal(before, after) {
		t.Fatalf("state diverged after crash recovery:\n before: %s\n after:  %s", before, after)
	}

	// Cross-workflow duplicate suppression survives the crash: the file
	// workflow 1 staged is removed from workflow 2's list.
	adv2, err := svc2.AdviseTransfers([]policy.TransferSpec{spec(1, "wf2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv2.Removed) != 1 || adv2.Removed[0].Reason != "already-staged" {
		t.Fatalf("post-recovery advice = %+v", adv2)
	}

	_ = ps
}

// TestRecoveryFromSnapshotPlusTail exercises the compacted path: snapshot
// mid-run, keep mutating, crash, and recover from snapshot + WAL tail.
func TestRecoveryFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	info, err := ps.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Bytes == 0 {
		t.Fatalf("snapshot info = %+v", info)
	}
	// Mutations after the snapshot land in the fresh WAL segment.
	adv, err := svc.AdviseTransfers([]policy.TransferSpec{spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	// Flush to the OS (no Close — the "process" dies here).
	if err := ps.store.wal.Flush(); err != nil {
		t.Fatal(err)
	}
	before := dumpJSON(t, svc)

	svc2 := newService(t)
	_, stats, err := OpenPolicyStore(dir, svc2, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotSeq != 1 || stats.Replayed != 2 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if !bytes.Equal(before, dumpJSON(t, svc2)) {
		t.Fatal("snapshot+tail recovery diverged")
	}
}

// TestSnapshotCompactsAndPrunes verifies WAL segments behind a snapshot
// are deleted and old snapshot generations pruned.
func TestSnapshotCompactsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(round, "wf")}); err != nil {
			t.Fatal(err)
		}
		if _, err := ps.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[1] != 4 {
		t.Fatalf("snapshots = %v", snaps)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].first != 5 {
		t.Fatalf("segments = %+v", segs)
	}
	// Idempotence: snapshotting with no new mutations is a no-op.
	if _, err := ps.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if segs2, _ := listSegments(dir); len(segs2) != 1 || segs2[0].first != 5 {
		t.Fatalf("no-op snapshot rotated: %+v", segs2)
	}
}

// TestArchiveShipsSnapshotAndTail verifies the resync bundle and that a
// fresh service replaying it converges to the donor's state.
func TestArchiveShipsSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(2, "wf1")}); err != nil {
		t.Fatal(err)
	}
	arch, err := ps.Archive()
	if err != nil {
		t.Fatal(err)
	}
	if arch.SnapshotSeq != 1 || arch.Snapshot == nil || len(arch.Tail) != 1 {
		t.Fatalf("archive = seq %d, snapshot %v, %d tail records",
			arch.SnapshotSeq, arch.Snapshot != nil, len(arch.Tail))
	}
	// A blank service fed the archive converges to the donor.
	svc2 := newService(t)
	var d policy.StateDump
	if err := json.Unmarshal(arch.Snapshot, &d); err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.Execute(context.Background(), policy.OpImportState, &d); err != nil {
		t.Fatal(err)
	}
	for _, rec := range arch.Tail {
		if err := svc2.ApplyLogged(rec.Op, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dumpJSON(t, svc), dumpJSON(t, svc2)) {
		t.Fatal("archive replay diverged from donor")
	}
}

// TestWALMetrics verifies the obs series move with WAL activity.
func TestWALMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewWALMetrics(reg)
	dir := t.TempDir()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{Fsync: true, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := m.Appends.Value(); got != 1 {
		t.Errorf("appends = %v", got)
	}
	if got := m.Fsyncs.Value(); got < 1 {
		t.Errorf("fsyncs = %v", got)
	}
	if got := m.Bytes.Value(); got <= 0 {
		t.Errorf("bytes = %v", got)
	}
	if got := m.Snapshots.Value(); got != 1 {
		t.Errorf("snapshots = %v", got)
	}
	if got := m.SnapshotSeconds.Count(); got != 1 {
		t.Errorf("snapshot observations = %v", got)
	}
	ps.Close()

	// Recovery counts replayed records.
	svc2 := newService(t)
	if _, _, err := OpenPolicyStore(dir, svc2, Options{Fsync: true, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if got := m.RecoveredRecords.Value(); got != 0 {
		t.Errorf("recovered = %v, want 0 (snapshot covered the log)", got)
	}
	if _, err := svc2.AdviseTransfers([]policy.TransferSpec{spec(2, "wf1")}); err != nil {
		t.Fatal(err)
	}
	svc3 := newService(t)
	if _, _, err := OpenPolicyStore(dir, svc3, Options{Fsync: true, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if got := m.RecoveredRecords.Value(); got != 1 {
		t.Errorf("recovered = %v, want 1", got)
	}
}

// TestArchiveWriteJSONMatchesEncoder: for a snapshot as json.Marshal
// writes it (compact, HTML-escaped), the framed archive document is the
// encoder's, byte for byte, with and without a snapshot and a tail.
func TestArchiveWriteJSONMatchesEncoder(t *testing.T) {
	snap := json.RawMessage(`{"epoch":2,"transfers":[{"id":"t-1","sourceUrl":"a\u003cb"}]}`)
	tail := []Record{{Seq: 6, Op: "advise_transfers", Data: json.RawMessage(`[{"requestId":"r"}]`)}, {Seq: 7, Op: "bump_epoch"}}
	for _, arch := range []*Archive{
		{SnapshotSeq: 5, Epoch: 2, Snapshot: snap, Tail: tail},
		{SnapshotSeq: 5, Epoch: 2, Snapshot: snap},
		{Delta: true, Tail: tail},
		{Delta: true},
		{Tail: tail},
	} {
		var got, want bytes.Buffer
		parts, err := arch.JSON()
		if err != nil {
			t.Fatal(err)
		}
		parts.WriteTo(&got)
		if err := json.NewEncoder(&want).Encode(arch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Archive.JSON:\n got  %s want %s", got.Bytes(), want.Bytes())
		}
	}
}
