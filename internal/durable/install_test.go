package durable

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// installDonor builds a durable donor holding n resident transfers,
// snapshots it, and logs one more advise after the snapshot, so its full
// archive carries a state of roughly n×300 bytes and a one-record tail.
func installDonor(t *testing.T, n int) (*policy.Service, *PolicyStore) {
	t.Helper()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(t.TempDir(), svc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	advise := func(name string) {
		t.Helper()
		if _, err := svc.AdviseTransfers([]policy.TransferSpec{{RequestID: "r-" + name, WorkflowID: "wf",
			SourceURL: "gsiftp://src.example.org/" + name, DestURL: "file://dst.example.org/" + name}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		advise(fmt.Sprintf("f-%05d", i))
	}
	if _, err := ps.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	advise("tail")
	return svc, ps
}

// fullRestore applies donor's full archive to svc, as a standby's syncer
// does after a Reset.
func fullRestore(t *testing.T, svc *policy.Service, donor *PolicyStore) {
	t.Helper()
	arch, err := donor.Archive()
	if err != nil {
		t.Fatal(err)
	}
	recs := []policy.ReplicaRecord{{Seq: arch.SnapshotSeq, Op: policy.OpImportState, Data: arch.Snapshot}}
	for _, rec := range arch.Tail {
		recs = append(recs, policy.ReplicaRecord{Seq: rec.Seq, Op: rec.Op, Data: rec.Data})
	}
	if err := svc.ApplyReplica("donor", recs); err != nil {
		t.Fatal(err)
	}
}

// TestFullRestoreInstallsTheSnapshot: a full restore installs the donor's
// snapshot as the standby's own instead of logging it, so the standby's
// WAL gains only the tail — under 1 KB against a state over 100 KB — and
// the snapshot file holds the donor's state bytes as shipped. Closed right
// after, the standby reopens cold to the same state byte for byte.
func TestFullRestoreInstallsTheSnapshot(t *testing.T) {
	donorSvc, donor := installDonor(t, 400)
	m := obs.NewWALMetrics(obs.NewRegistry())
	dir := t.TempDir()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{Fsync: true, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	fullRestore(t, svc, donor)
	live := dumpJSON(t, svc)
	if !bytes.Equal(live, dumpJSON(t, donorSvc)) {
		t.Fatal("restored standby differs from the donor")
	}
	arch, err := donor.Archive()
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Snapshot) < 100<<10 {
		t.Fatalf("donor state is %d bytes, want a state of at least 100 KB", len(arch.Snapshot))
	}
	if got := m.Bytes.Value(); got > 1<<10 {
		t.Fatalf("full restore wrote %v WAL bytes for a %d-byte state, want at most 1 KB", got, len(arch.Snapshot))
	}
	seq, _, state, err := loadLatestSnapshot(dir)
	if err != nil || seq != 1 || !bytes.Equal(state, arch.Snapshot) {
		t.Fatalf("installed snapshot at seq %d (%v), state equal to the donor's: %v", seq, err, bytes.Equal(state, arch.Snapshot))
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	cold := newService(t)
	ps2, stats, err := OpenPolicyStore(dir, cold, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if stats.SnapshotSeq != 1 || stats.Replayed != len(arch.Tail) {
		t.Fatalf("reopened from snapshot %d replaying %d records, want 1 and %d", stats.SnapshotSeq, stats.Replayed, len(arch.Tail))
	}
	if got := dumpJSON(t, cold); !bytes.Equal(got, live) {
		t.Fatalf("cold reopen after an install differs from the live state:\n got  %s\n want %s", got, live)
	}
}

// TestSecondRestorePrunesTheFirst: an installed snapshot replaces the whole
// history before it, so the next full restore leaves only its own snapshot
// and one WAL segment behind, and the store still recovers to the live
// state.
func TestSecondRestorePrunesTheFirst(t *testing.T) {
	_, donor := installDonor(t, 20)
	dir := t.TempDir()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullRestore(t, svc, donor)
	first, err := listSnapshots(dir)
	if err != nil || len(first) != 1 {
		t.Fatalf("after the first restore: snapshots %v (%v)", first, err)
	}
	if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(1, "wf-local")}); err != nil {
		t.Fatal(err)
	}
	fullRestore(t, svc, donor)
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 1 || snaps[0] <= first[0] {
		t.Fatalf("after the second restore: snapshots %v (first was %v, %v)", snaps, first, err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments after the second restore: %v (%v)", segs, err)
	}
	live := dumpJSON(t, svc)
	ps.Close()
	cold := newService(t)
	ps2, _, err := OpenPolicyStore(dir, cold, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if !bytes.Equal(dumpJSON(t, cold), live) {
		t.Fatal("cold reopen after two restores differs from the live state")
	}
}

// TestInstallCrashBeforeRotationRecovers: a crash after an installed
// snapshot is durable but before the WAL restarts behind it leaves the old
// segment as the log's tail. The snapshot covers the seq no record holds,
// so reopening — and appending and reopening again — is not a gap.
func TestInstallCrashBeforeRotationRecovers(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append("op", i); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// What Install leaves on disk if it stops after writing the snapshot.
	if err := writeSnapshotFile(dir, 4, 0, []byte(`{"installed":true}`)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		var replayed []uint64
		st, stats, err := Open(dir, Options{}, nil, func(rec Record) error {
			replayed = append(replayed, rec.Seq)
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		if stats.SnapshotSeq != 4 || len(replayed) != round {
			t.Fatalf("round %d: snapshot %d, replayed %v", round, stats.SnapshotSeq, replayed)
		}
		if seq, err := st.Append("op", "after"); err != nil || seq != uint64(5+round) {
			t.Fatalf("round %d: append after the install got seq %d (%v)", round, seq, err)
		}
		st.Close()
	}
}
