package faultsim

import (
	"testing"

	"policyflow/internal/obs"
)

// scenario builds a harness on the fixed fault-free configuration and
// returns a runner that fails the test on the first invariant violation.
func scenario(t *testing.T) (*Harness, func(ops ...Op)) {
	t.Helper()
	h, err := newHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h, func(ops ...Op) {
		t.Helper()
		for i, op := range ops {
			if err := h.exec(op); err != nil {
				t.Fatalf("op %d (%s): %v", i, op.Kind, err)
			}
		}
	}
}

// TestShedIsEffectFree drives admission sheds through the full stack and
// proves a 429 is free of side effects: after every step the harness
// compares the primary byte-for-byte against the fault-free oracle — which
// never sees shed operations at all — so any WAL append, idempotency-cache
// entry or partial state change made by a shed request would surface as a
// divergence.
//
// Count 1 sheds one attempt and lets the client's Retry-After-aware retry
// succeed (the op lands exactly once). Count 3 sheds every attempt, the
// leader-following client returns the 429 as answered — it does not go
// asking the standby — and the op must have happened nowhere. Sheds armed
// on the standby cannot fire while it is a standby: it admits no client
// mutation, and its syncer is replication-plane traffic that bypasses the
// admission queue. They fire on the first client ops after its promotion.
func TestShedIsEffectFree(t *testing.T) {
	h, run := scenario(t)
	const endpoint = "/v1/transfers"
	standbyRuns := func() int {
		h.router.mu.Lock()
		defer h.router.mu.Unlock()
		return h.router.HandlerRuns[h.replicas[1].host]
	}
	run(
		// Baseline mutation so the primary holds non-trivial state.
		adviseOp("r-1", "f-01"),
		// Shed-then-retry: one 429 on the primary, the retry is admitted.
		Op{Kind: OpShed, Replica: 0, Count: 1},
		adviseOp("r-2", "f-02"),
	)
	if got := len(h.oracle.ExportState().Transfers); got != 2 {
		t.Fatalf("%d transfers acknowledged after a shed-then-retry, want 2", got)
	}
	// Full shed: every attempt refused, the client reports busy without
	// visiting the standby, and the per-step check proves nothing applied.
	before := standbyRuns()
	run(Op{Kind: OpShed, Replica: 0, Count: 3}, adviseOp("r-3", "f-03"))
	if got := len(h.oracle.ExportState().Transfers); got != 2 {
		t.Fatalf("%d transfers after a fully shed advise, want still 2", got)
	}
	if got := standbyRuns(); got != before {
		t.Fatalf("a 429 from the primary sent the client to the standby (%d handler runs)", got-before)
	}
	if v := h.ClientMetrics.Faults.With(endpoint, "http_429").Value(); v != 4 {
		t.Fatalf("client saw %v 429s, want 4 (1 retried through + 3 exhausted)", v)
	}

	// Sheds armed on the standby do not touch its syncs, before or after a
	// crash-restart of the primary...
	run(
		Op{Kind: OpShed, Replica: 1, Count: 3},
		Op{Kind: OpStandbySync},
		adviseOp("r-4", "f-04"),
		Op{Kind: OpCrash, Replica: 0},
		Op{Kind: OpStandbySync},
	)
	if !h.fresh[1] {
		t.Fatal("standby not fresh after syncing with sheds armed (replay must bypass admission)")
	}
	// ...and land on the first client op after its promotion, which is shed
	// on every attempt and leaves no effect on the new primary either.
	run(Op{Kind: OpPromote, Replica: 1}, adviseOp("r-5", "f-05"))
	if got := len(h.oracle.ExportState().Transfers); got != 3 {
		t.Fatalf("%d transfers after the armed sheds fired on the new primary, want still 3", got)
	}
	run(adviseOp("r-6", "f-06"), Op{Kind: OpStandbySync})
	if got := len(h.replicas[0].svc.ExportState().Transfers); got != 4 || !h.fresh[0] {
		t.Fatalf("deposed node holds %d transfers (fresh=%v) after its sync, want 4 and fresh", got, h.fresh[0])
	}
	if h.faultCounts()[OpShed] != 7 {
		t.Errorf("harness recorded %d shed faults, want 7", h.faultCounts()[OpShed])
	}
}

// TestDiskFaultIsEffectFree is the same proof for injected WAL append
// failures, on each node. On the primary the logged mutation answers 500
// before any effect: the client gets no acknowledgement (the standby fences
// the re-routed attempt), nothing changed, and the next op succeeds. On the
// standby the failure hits the sync: it fails with the standby's state
// untouched, and the sync after it is a full restore — the standby
// installs the donor's snapshot at a fresh position of its own log — that
// reconverges byte-identically. On a node being promoted it fails the
// promotion attempt, which is retried.
func TestDiskFaultIsEffectFree(t *testing.T) {
	h, run := scenario(t)
	run(
		adviseOp("r-1", "f-01"),
		Op{Kind: OpStandbySync},
		Op{Kind: OpDiskFault, Replica: 0, Count: 1},
		adviseOp("r-2", "f-02"), // 500 from the primary, 412 from the standby
	)
	if got := len(h.oracle.ExportState().Transfers); got != 1 {
		t.Fatalf("%d transfers acknowledged through a failing WAL, want 1", got)
	}
	run(adviseOp("r-3", "f-03"))
	if got := len(h.oracle.ExportState().Transfers); got != 2 {
		t.Fatalf("%d transfers after the disk recovered, want 2", got)
	}

	// A full restore installs the donor's snapshot as the standby's own, at
	// a fresh position of its log; a delta moves no snapshot.
	installed := func() uint64 {
		arch, err := h.replicas[1].ps.Archive()
		if err != nil {
			t.Fatal(err)
		}
		return arch.SnapshotSeq
	}
	reg := obs.NewRegistry()
	h.syncers[1].Instrument(reg)
	pre := h.replicas[1].svc.ExportState()
	snapBefore := installed()
	run(Op{Kind: OpDiskFault, Replica: 1, Count: 1}, Op{Kind: OpStandbySync})
	var failures float64
	for _, f := range reg.Snapshot() {
		if f.Name == "policy_standby_errors_total" {
			failures = f.Samples[0].Value
		}
	}
	if failures != 1 {
		t.Fatalf("%v failed syncs with a disk fault armed on the standby, want 1", failures)
	}
	if got := len(h.replicas[1].svc.ExportState().Transfers); got != len(pre.Transfers) {
		t.Fatalf("failed sync changed the standby: %d transfers, had %d", got, len(pre.Transfers))
	}
	if got := installed(); got != snapBefore {
		t.Fatalf("failed sync installed a snapshot at %d on the standby (had %d), want none", got, snapBefore)
	}
	run(Op{Kind: OpStandbySync})
	if got := installed(); got <= snapBefore {
		t.Fatalf("sync after a failed one left the standby's snapshot at %d (had %d), want a full restore installed, not a delta", got, snapBefore)
	}
	if !h.fresh[1] {
		t.Fatal("standby not fresh after the full sync")
	}

	// A disk fault armed on the node being promoted fails the attempt — the
	// catch-up cannot reach its WAL — before any effect; the retry
	// lands at exactly the next epoch (stepPromote checks it) and the pair
	// carries on.
	run(
		Op{Kind: OpDiskFault, Replica: 1, Count: 1},
		Op{Kind: OpPromote, Replica: 1},
		adviseOp("r-4", "f-04"),
		Op{Kind: OpStandbySync},
	)
	if h.armedDiskFaults(1) != 0 || h.expectedEpoch != 2 || h.rc.LastAckReplica() != 1 {
		t.Fatalf("after a promotion through a disk fault: %d faults still armed, epoch %d, last ack from %d; want 0, 2, 1",
			h.armedDiskFaults(1), h.expectedEpoch, h.rc.LastAckReplica())
	}
	if !h.fresh[0] {
		t.Fatal("deposed node not fresh after its sync")
	}
}
