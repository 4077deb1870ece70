package faultsim

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"policyflow/internal/policy"
)

// TestAtMostOnceUnderResponseLoss drives mutations through dropped
// responses, duplicated deliveries and injected 503s, and proves the
// client's idempotency-key retry machinery kept every mutation
// at-most-once: the harness's per-step consistency checks pass, the client
// metrics show the retries and replays actually happened, and the server
// counted the answers it served from its idempotency cache.
func TestAtMostOnceUnderResponseLoss(t *testing.T) {
	h, err := newHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	ops := []Op{
		// The handler applies the mutation, the response is lost, the
		// retry must be answered from the idempotency cache.
		adviseOp("r-1", "f-01", FaultSpec{Replica: 0, Kind: FaultDropResponse}),
		// The delivery itself is duplicated; the second copy carries the
		// same key and must replay, not re-apply.
		adviseOp("r-2", "f-02", FaultSpec{Replica: 0, Kind: FaultDuplicate}),
		// A 503 exercises the retryable-status path.
		adviseOp("r-3", "f-03", FaultSpec{Replica: 0, Kind: Fault503}),
		adviseOp("r-4", "f-04",
			FaultSpec{Replica: 0, Kind: FaultDropResponse},
			FaultSpec{Replica: 0, Kind: FaultLoseRequest}),
	}
	for i, op := range ops {
		if err := h.exec(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	const endpoint = "/v1/transfers"
	if v := h.ClientMetrics.Retries.With(endpoint).Value(); v == 0 {
		t.Error("no client retries recorded despite injected faults")
	}
	if v := h.ClientMetrics.IdempotentReplays.With(endpoint).Value(); v == 0 {
		t.Error("no idempotent replays observed by the client")
	}
	transport := h.ClientMetrics.Faults.With(endpoint, "transport").Value()
	http5xx := h.ClientMetrics.Faults.With(endpoint, "http_5xx").Value()
	if transport == 0 || http5xx == 0 {
		t.Errorf("fault counters incomplete: transport=%v http_5xx=%v", transport, http5xx)
	}
	// The server side of the same story: the primary answered at least one
	// retry from its idempotency cache instead of re-applying.
	served := h.serverRegistry(0).Counter("http_idempotent_replays_total",
		"Mutating requests answered from the idempotency cache without re-applying.").With().Value()
	if served == 0 {
		t.Error("the primary never served from its idempotency cache")
	}
}

// TestConcurrentClientsStayConsistent hammers the leader-following client
// from several goroutines (the -race companion to the single-threaded
// schedules): after the storm quiesces and the standby syncs, both nodes
// must hold identical, internally consistent Policy Memory.
func TestConcurrentClientsStayConsistent(t *testing.T) {
	h, err := newHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				specs := []policy.TransferSpec{{
					RequestID:  fmt.Sprintf("r-%d-%d", w, i),
					WorkflowID: fmt.Sprintf("wf-%d", w),
					SourceURL:  fmt.Sprintf("gsiftp://hostA/data/w%d-f%02d", w, i),
					DestURL:    fmt.Sprintf("gsiftp://hostB/data/w%d-f%02d", w, i),
				}}
				adv, err := h.rc.AdviseTransfers(specs)
				if err != nil {
					t.Errorf("worker %d advise %d: %v", w, i, err)
					return
				}
				if i%2 == 0 && len(adv.Transfers) == 1 {
					if _, err := h.rc.ReportTransfers(policy.CompletionReport{
						TransferIDs: []string{adv.Transfers[0].ID},
					}); err != nil {
						t.Errorf("worker %d report %d: %v", w, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := h.rc.LastAckReplica(); got != 0 {
		t.Fatalf("last ack from replica %d, want the primary (0)", got)
	}
	if err := h.syncers[1].SyncOnce(); err != nil {
		t.Fatalf("standby sync after the storm: %v", err)
	}

	d0, d1 := h.replicas[0].svc.ExportState(), h.replicas[1].svc.ExportState()
	b0, _ := json.Marshal(d0)
	b1, _ := json.Marshal(d1)
	if string(b0) != string(b1) {
		t.Fatalf("standby diverged from the primary after concurrent load:\n  primary %s\n  standby %s", b0, b1)
	}
	if len(d0.Resources) != workers*25 {
		t.Fatalf("primary tracks %d files after %d advises", len(d0.Resources), workers*25)
	}
	if err := d0.Verify(); err != nil {
		t.Fatalf("post-storm state inconsistent: %v", err)
	}
	for _, tr := range d0.Transfers {
		if tr.State != policy.TransferInProgress {
			t.Fatalf("transfer %s in state %d after quiescing", tr.ID, tr.State)
		}
	}
	for _, c := range d0.Cleanups {
		if c.State != policy.CleanupInProgress {
			t.Fatalf("cleanup %s in state %d after quiescing", c.ID, c.State)
		}
	}
}
