package durable

import (
	"bytes"
	"context"
	"testing"

	"policyflow/internal/policy"
)

const replayBundleDoc = `{
  "schemaVersion": 1,
  "version": "durable-v1",
  "algorithm": "greedy",
  "defaultStreams": 2,
  "minStreams": 1,
  "defaultThreshold": 9,
  "clusterFactor": 1,
  "pairThresholds": [
    {"sourceHost": "src.example.org", "destHost": "dst.example.org", "max": 4}
  ]
}`

// TestBundleActivationReplaysPastTornCrash: a bundle activation is a
// WAL-logged mutation carrying the full document, so a crash that tears
// the record written after it must recover the activation — same active
// version, same tunables, byte-identical Policy Memory — without the
// original bundle file existing anywhere on the replica.
func TestBundleActivationReplaysPastTornCrash(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t)
	ps, _, err := OpenPolicyStore(dir, svc, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	info, err := policy.Call[*policy.BundleInfo](context.Background(), svc, policy.OpActivateBundle, policy.BundleOp{Doc: []byte(replayBundleDoc)})
	if err != nil {
		t.Fatalf("ActivateBundle: %v", err)
	}
	if !info.Active || info.Version != "durable-v1" {
		t.Fatalf("activation info %+v", info)
	}
	// More logged work after the activation, then a torn crash.
	if _, err := svc.AdviseTransfers([]policy.TransferSpec{spec(2, "wf2")}); err != nil {
		t.Fatal(err)
	}
	before := dumpJSON(t, svc)
	beforeBundle := svc.ActiveBundle()
	_ = ps // crash: no Close
	tearWALTail(t, dir)

	svc2 := newService(t)
	ps2, stats, err := OpenPolicyStore(dir, svc2, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if stats.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3 (advise, activate, advise)", stats.Replayed)
	}
	after := dumpJSON(t, svc2)
	if !bytes.Equal(before, after) {
		t.Fatalf("state diverged after torn-crash recovery:\n before %s\n after  %s", before, after)
	}
	afterBundle := svc2.ActiveBundle()
	if afterBundle.Checksum() != beforeBundle.Checksum() {
		t.Fatalf("active bundle diverged after recovery:\n before %s\n after  %s", beforeBundle.Canonical(), afterBundle.Canonical())
	}
	if afterBundle.Version != "durable-v1" || afterBundle.DefaultThreshold != 9 {
		t.Fatalf("recovered bundle %+v, want durable-v1 threshold 9", afterBundle)
	}
	// The rollback target survives replay too: rolling back on the
	// recovered replica restores the bootstrap bundle.
	res, err := svc2.Execute(context.Background(), policy.OpActivateBundle, policy.BundleOp{Rollback: true})
	if err != nil {
		t.Fatalf("rollback after recovery: %v", err)
	}
	if rb := res.(*policy.BundleInfo); rb.Version != policy.BootstrapBundleVersion {
		t.Fatalf("post-recovery rollback landed on %q", rb.Version)
	}
}

// TestRollbackReplaysAcrossRestart: rollback is logged as a plain
// activation of the previous document, so restart converges on the
// rolled-back state.
func TestRollbackReplaysAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t)
	if _, _, err := OpenPolicyStore(dir, svc, Options{Fsync: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := policy.Call[*policy.BundleInfo](context.Background(), svc, policy.OpActivateBundle, policy.BundleOp{Doc: []byte(replayBundleDoc)}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Execute(context.Background(), policy.OpActivateBundle, policy.BundleOp{Rollback: true}); err != nil {
		t.Fatal(err)
	}
	before := dumpJSON(t, svc)

	svc2 := newService(t)
	ps2, stats, err := OpenPolicyStore(dir, svc2, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if stats.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (activate, rollback)", stats.Replayed)
	}
	if !bytes.Equal(before, dumpJSON(t, svc2)) {
		t.Fatal("state diverged after replaying a rollback")
	}
	if got := svc2.ActiveBundle().Version; got != policy.BootstrapBundleVersion {
		t.Fatalf("recovered active bundle %q, want %q", got, policy.BootstrapBundleVersion)
	}
}
