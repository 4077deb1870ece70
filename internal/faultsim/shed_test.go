package faultsim

import (
	"testing"
)

// TestShedIsEffectFree drives admission sheds through the full stack and
// proves a 429 is free of side effects: after every step the harness
// dumps each healthy replica and compares it byte-for-byte against the
// fault-free oracle — which never sees shed operations at all — so any
// WAL append, idempotency-cache entry or partial state change made by a
// shed request would surface as a divergence.
//
// Count 1 sheds one attempt and lets the client's Retry-After-aware
// retry succeed (the op lands everywhere exactly once). Count 3 sheds
// every attempt, the client reports busy, and the op must have happened
// nowhere. Sheds interleave with crashes and resyncs to cover recovery:
// archive replay is replication-plane traffic that bypasses the admission
// queue, so sheds armed on a downed replica cannot fail its resync — they
// stay armed and land on the next client op instead.
func TestShedIsEffectFree(t *testing.T) {
	ops := []Op{
		// Baseline mutation so replicas hold non-trivial state.
		adviseOp("r-1", "f-01"),
		// Shed-then-retry: one 429 on replica 0, the retry is admitted.
		{Kind: OpShed, Replica: 0, Count: 1},
		adviseOp("r-2", "f-02"),
		// Full shed on the first replica tried: the replicated client
		// surfaces busy, the harness treats the op as never-happened, and
		// the per-step dump check proves no replica applied it.
		{Kind: OpShed, Replica: 0, Count: 3},
		adviseOp("r-3", "f-03"),
		// Full shed on the second replica: replica 0 applies, replica 1
		// sheds every attempt and is marked down (to the client a refusal
		// after a peer accepted is indistinguishable from divergence).
		{Kind: OpShed, Replica: 1, Count: 3},
		adviseOp("r-4", "f-04"),
		// Crash-recover the shed replica, then resync it from its peer;
		// afterwards the dump check covers it again.
		{Kind: OpCrash, Replica: 1},
		{Kind: OpResync},
		// Down replica 1 again, arm sheds on it, and resync: the replay
		// (snapshot + the r-5 tail record) does not pass through admission,
		// so it cannot be shed mid-tail.
		adviseOp("r-5", "f-05", FaultSpec{Replica: 1, Kind: Fault503},
			FaultSpec{Replica: 1, Kind: Fault503}, FaultSpec{Replica: 1, Kind: Fault503}),
		{Kind: OpShed, Replica: 1, Count: 3},
		{Kind: OpResync},
	}
	h, err := NewHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	run := func(ops []Op) {
		t.Helper()
		for i, op := range ops {
			if err := h.Step(op); err != nil {
				t.Fatalf("op %d (%s): %v", i, op.Kind, err)
			}
		}
	}
	run(ops)
	if got := len(h.rc.Healthy()); got != numReplicas {
		t.Fatalf("%d healthy replicas after resync with sheds armed, want %d (replay must bypass admission)", got, numReplicas)
	}
	// The sheds are still armed and hit the next client op: replica 0
	// applies it, replica 1 sheds every attempt and is marked down.
	run([]Op{adviseOp("r-6", "f-06")})
	if up := h.rc.Healthy(); len(up) != 1 || up[0] != 0 {
		t.Fatalf("healthy replicas after the armed sheds fired = %v, want [0]", up)
	}
	run([]Op{{Kind: OpResync}, adviseOp("r-7", "f-07")})

	// The client saw and retried through real 429s.
	const endpoint = "/v1/transfers"
	if v := h.ClientMetrics.Faults.With(endpoint, "http_429").Value(); v == 0 {
		t.Error("no http_429 client faults recorded despite armed sheds")
	}
	// Both replicas ended healthy and byte-identical to the oracle (the
	// per-step checks proved it); the shed counters confirm the sheds
	// actually fired rather than the schedule silently skipping them.
	if got := len(h.rc.Healthy()); got != numReplicas {
		t.Fatalf("%d healthy replicas after final resync, want %d", got, numReplicas)
	}
	if h.FaultCounts()[OpShed] == 0 {
		t.Error("harness recorded no shed faults")
	}
}
