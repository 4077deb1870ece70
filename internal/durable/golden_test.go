package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"policyflow/internal/policy"
)

var update = flag.Bool("update", false, "regenerate testdata/golden from goldenHistory")

// The golden fixtures pin the on-disk and on-wire formats: a data directory
// holding the whole log (wal/), one holding a snapshot plus the tail after
// it (snapshot/), the Policy Memory all of them recover to (state.json),
// and the archives the snapshot directory serves — full (archive.json) and
// the delta after the snapshot (archive_delta.json). They were written once
// by goldenHistory; every later build must still read them. restore/ is a
// standby's data directory after a full restore of archive.json, in the v1
// layout: the snapshot logged as one import_state WAL record, then the tail
// (see restoreHistory).
const goldenDir = "testdata/golden"

// goldenLeaseTTL is the one setting the fixtures' services change from
// policy.DefaultConfig: leases on, so the history can renew and expire them.
const goldenLeaseTTL = 30

func goldenService(t *testing.T) *policy.Service {
	t.Helper()
	cfg := policy.DefaultConfig()
	cfg.LeaseTTL = goldenLeaseTTL
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// goldenHistory drives a fixed history covering every logged op kind
// through a durable service in dir, snapshotting halfway when snapshot is
// set. It returns the exported state and the snapshot's position.
func goldenHistory(t *testing.T, dir string, snapshot bool) (state []byte, snapSeq uint64) {
	t.Helper()
	svc := goldenService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = svc.BumpEpoch(1)
	must(err)
	adv, err := svc.AdviseTransfers([]policy.TransferSpec{spec(1, "wf1"), spec(2, "wf1")})
	must(err)
	_, err = svc.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}})
	must(err)
	_, err = svc.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "src.example.org", DestHost: "dst.example.org", Max: 7})
	must(err)
	_, err = policy.Call[*policy.LeaseStatus](context.Background(), svc, policy.OpRenewLease, policy.LeaseOp{WorkflowID: "wf1"})
	must(err)
	if snapshot {
		info, err := ps.SnapshotNow()
		must(err)
		snapSeq = info.Seq
	}
	adv, err = svc.AdviseTransfers([]policy.TransferSpec{spec(3, "wf2")})
	must(err)
	_, err = svc.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}})
	must(err)
	cadv, err := svc.AdviseCleanups([]policy.CleanupSpec{{RequestID: "c-1", WorkflowID: "wf2",
		FileURL: spec(3, "wf2").DestURL}})
	must(err)
	ids := make([]string, len(cadv.Cleanups))
	for i, c := range cadv.Cleanups {
		ids[i] = c.ID
	}
	_, err = svc.ReportCleanups(policy.CleanupReport{CleanupIDs: ids})
	must(err)
	_, err = policy.Call[*policy.ClockAdvance](context.Background(), svc, policy.OpAdvanceClock, policy.ClockOp{Now: 12.5})
	must(err)
	_, err = policy.Call[*policy.BundleInfo](context.Background(), svc, policy.OpActivateBundle, policy.BundleOp{Doc: []byte(replayBundleDoc)})
	must(err)
	_, err = svc.BumpEpoch(2)
	must(err)
	return dumpJSON(t, svc), snapSeq
}

// restoreHistory applies the committed full archive to a fresh standby in
// dir the way v1 builds logged a full restore: the snapshot as one
// import_state WAL record (the generic Store is the service's log, so the
// record is written as is), then the tail records after it.
func restoreHistory(t *testing.T, dir string) {
	t.Helper()
	var arch Archive
	if err := json.Unmarshal(readGolden(t, "archive.json"), &arch); err != nil {
		t.Fatal(err)
	}
	svc := goldenService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	svc.SetMutationLog(ps.store)
	recs := []policy.ReplicaRecord{{Seq: arch.SnapshotSeq, Op: policy.OpImportState, Data: arch.Snapshot}}
	for _, rec := range arch.Tail {
		recs = append(recs, policy.ReplicaRecord{Seq: rec.Seq, Op: rec.Op, Data: rec.Data})
	}
	if err := svc.ApplyReplica("donor", recs); err != nil {
		t.Fatal(err)
	}
}

// goldenSubs are the committed data directories, each with its writer.
var goldenSubs = []struct {
	name  string
	write func(t *testing.T, dir string)
}{
	{"wal", func(t *testing.T, dir string) { goldenHistory(t, dir, false) }},
	{"snapshot", func(t *testing.T, dir string) { goldenHistory(t, dir, true) }},
	{"restore", restoreHistory},
}

// copyFiles copies the regular files matching pattern from src into dst.
func copyFiles(t *testing.T, src, dst, pattern string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(src, pattern))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// marshalArchive renders arch as a donor serves it (Archive.JSON),
// indented. The wire bytes must equal json.Marshal's, so the fixtures also
// pin that the archive document is framed, not re-encoded, exactly as the
// encoder would write it.
func marshalArchive(t *testing.T, arch *Archive, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var wire, out bytes.Buffer
	parts, err := arch.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parts.WriteTo(&wire)
	enc, err := json.Marshal(arch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), append(enc, '\n')) {
		t.Fatalf("archive wire bytes differ from json.Marshal:\n got  %s\n want %s", wire.Bytes(), enc)
	}
	if err := json.Indent(&out, wire.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// regenerateGolden rewrites testdata/golden from goldenHistory.
func regenerateGolden(t *testing.T) {
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"wal", "snapshot"} {
		dir := filepath.Join(t.TempDir(), sub)
		state, snapSeq := goldenHistory(t, dir, sub == "snapshot")
		copyFiles(t, dir, filepath.Join(goldenDir, sub), "*")
		if sub == "wal" {
			continue
		}
		files := map[string][]byte{"state.json": append(state, '\n')}
		st, _, err := Open(dir, Options{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		arch, err := st.ArchiveTail()
		files["archive.json"] = marshalArchive(t, arch, err)
		arch, err = st.ArchiveAfter(snapSeq)
		files["archive_delta.json"] = marshalArchive(t, arch, err)
		st.Close()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := filepath.Join(t.TempDir(), "restore")
	restoreHistory(t, dir)
	copyFiles(t, dir, filepath.Join(goldenDir, "restore"), "*")
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/durable -run Golden -update)", err)
	}
	return data
}

// TestGoldenFixturesReplay recovers every committed data directory and
// requires the committed state, and re-serves the committed archives from
// the snapshot directory byte for byte. A change that cannot read a log or
// snapshot an earlier build wrote, or that changes what a donor ships,
// fails here.
func TestGoldenFixturesReplay(t *testing.T) {
	if *update {
		regenerateGolden(t)
	}
	want := bytes.TrimSuffix(readGolden(t, "state.json"), []byte("\n"))
	for _, g := range goldenSubs {
		sub := g.name
		dir := filepath.Join(t.TempDir(), sub)
		copyFiles(t, filepath.Join(goldenDir, sub), dir, "*")
		svc := goldenService(t)
		ps, stats, err := OpenPolicyStore(dir, svc, Options{})
		if err != nil {
			t.Fatalf("%s: recover: %v", sub, err)
		}
		if got := dumpJSON(t, svc); !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered state differs from state.json:\n got  %s\n want %s", sub, got, want)
		}
		if (stats.SnapshotSeq > 0) != (sub == "snapshot") {
			t.Fatalf("%s: recovered from snapshot seq %d", sub, stats.SnapshotSeq)
		}
		if sub == "snapshot" {
			arch, err := ps.Archive()
			if got := marshalArchive(t, arch, err); !bytes.Equal(got, readGolden(t, "archive.json")) {
				t.Fatalf("full archive differs from archive.json:\n%s", got)
			}
			arch, err = ps.ArchiveAfter(stats.SnapshotSeq)
			if got := marshalArchive(t, arch, err); !bytes.Equal(got, readGolden(t, "archive_delta.json")) {
				t.Fatalf("delta archive differs from archive_delta.json:\n%s", got)
			}
		}
		ps.Close()
	}
}

// TestGoldenHistoryIsStable regenerates the history and requires the
// committed files byte for byte: the writers still produce the format the
// fixtures pin. A deliberate format change regenerates them with -update
// and must keep reading the old ones.
func TestGoldenHistoryIsStable(t *testing.T) {
	for _, g := range goldenSubs {
		sub := g.name
		dir := filepath.Join(t.TempDir(), sub)
		g.write(t, dir)
		names, err := filepath.Glob(filepath.Join(goldenDir, sub, "*"))
		if err != nil || len(names) == 0 {
			t.Fatalf("%s: no committed fixture files (%v)", sub, err)
		}
		for _, name := range names {
			got, err := os.ReadFile(filepath.Join(dir, filepath.Base(name)))
			if err != nil {
				t.Fatalf("%s: regenerated history lacks %s: %v", sub, filepath.Base(name), err)
			}
			if want := readGolden(t, filepath.Join(sub, filepath.Base(name))); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s written differently from the committed fixture", sub, filepath.Base(name))
			}
		}
	}
}
