package policyhttp

import (
	"errors"
	"net/http/httptest"
	"testing"

	"policyflow/internal/policy"
)

// TestReplicatedReroutesAcrossPromotion drives a ReplicatedClient over a
// fenced pair across a failover: after the promotion the deposed leader's
// 412 re-routes the client to the new primary — with every mutation applied
// exactly once.
func TestReplicatedReroutesAcrossPromotion(t *testing.T) {
	_, svcs, urls := fencedPair(t)
	rc, err := NewReplicatedClient(
		NewClient(urls[0], noSleep()),
		NewClient(urls[1], noSleep()))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); err != nil {
		t.Fatal(err)
	}
	if rc.Leader() != 0 || rc.LastAckReplica() != 0 || rc.LastAckEpoch() != 1 {
		t.Fatalf("pre-failover ack: leader %d, replica %d, epoch %d",
			rc.Leader(), rc.LastAckReplica(), rc.LastAckEpoch())
	}
	// Fail over out-of-band, as policyctl promote would.
	if _, err := NewClient(urls[1], noSleep()).Promote(); err != nil {
		t.Fatal(err)
	}

	// The next mutation hits the deposed leader first, gets fenced, and
	// re-routes to the new primary. The re-routed attempt carries the second
	// per-replica client's own idempotency key; it applies exactly once
	// because the 412 was issued before anything was applied.
	adv, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(2, "wf1")})
	if err != nil {
		t.Fatalf("mutation across failover failed: %v", err)
	}
	if len(adv.Transfers) != 1 || len(adv.Removed) != 0 {
		t.Fatalf("post-failover advice = %+v", adv)
	}
	if rc.Leader() != 1 || rc.LastAckReplica() != 1 || rc.LastAckEpoch() != 2 {
		t.Fatalf("post-failover ack: leader %d, replica %d, epoch %d; want 1, 1, 2",
			rc.Leader(), rc.LastAckReplica(), rc.LastAckEpoch())
	}
	// Exactly once: the new primary holds the pre-failover write (carried
	// by the catch-up pull) plus the re-routed one — nothing twice.
	if dump := svcs[1].ExportState(); len(dump.Transfers) != 2 || dump.NextTransfer != 2 {
		t.Fatalf("new primary holds %d transfers (next %d), want 2 (next 2)",
			len(dump.Transfers), dump.NextTransfer)
	}
}

// TestReplicatedAllFenced: mid-failover there may briefly be no primary at
// all. Every reachable replica answering 412 must surface as ErrNoPrimary
// — applied nowhere, and the very next call walks both replicas again.
func TestReplicatedAllFenced(t *testing.T) {
	var urls [2]string
	var svcs [2]*policy.Service
	for i := range urls {
		svc, err := policy.New(policy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(svc, nil)
		srv.SetFailover(RoleStandby, nil)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i], svcs[i] = ts.URL, svc
	}
	rc, err := NewReplicatedClient(
		NewClient(urls[0], noSleep()),
		NewClient(urls[1], noSleep()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf1")}); !errors.Is(err, ErrNoPrimary) {
		t.Fatalf("err = %v, want ErrNoPrimary", err)
	}
	if rc.Leader() != -1 {
		t.Fatalf("leader hint = %d with nobody acking, want -1", rc.Leader())
	}
	for i, svc := range svcs {
		if dump := svc.ExportState(); len(dump.Transfers) != 0 {
			t.Fatalf("replica %d applied a write while fenced: %+v", i, dump.Transfers)
		}
	}
}
