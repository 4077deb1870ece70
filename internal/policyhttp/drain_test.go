package policyhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/durable"
	"policyflow/internal/policy"
)

// heldSync wraps a mutation log so a Sync announces itself on held and
// then blocks until allow has been called with its seq or a later one.
type heldSync struct {
	policy.MutationLog
	held    chan uint64
	mu      sync.Mutex
	cond    *sync.Cond
	allowed uint64
}

func newHeldSync(l policy.MutationLog) *heldSync {
	h := &heldSync{MutationLog: l, held: make(chan uint64, 4)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *heldSync) Sync(seq uint64) error {
	h.held <- seq
	h.mu.Lock()
	for h.allowed < seq {
		h.cond.Wait()
	}
	h.mu.Unlock()
	return h.MutationLog.Sync(seq)
}

func (h *heldSync) allow(seq uint64) {
	h.mu.Lock()
	h.allowed = seq
	h.cond.Broadcast()
	h.mu.Unlock()
}

// TestDrainThenCloseKeepsInFlightCommits: Drain followed at once by
// closing the store neither loses nor fails an accepted mutation whose
// commit is still in flight when the drain starts. The data dir, reopened
// cold, holds exactly the live state.
func TestDrainThenCloseKeepsInFlightCommits(t *testing.T) {
	dir := t.TempDir()
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := durable.OpenPolicyStore(dir, svc, durable.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	hold := newHeldSync(ps)
	svc.SetMutationLog(hold)
	ctl := NewAdmissionController(svc, admit.Config{MaxQueue: 8, MaxWait: time.Minute, BatchMax: 1})
	defer ctl.Close()

	muts := []*policy.BatchMutation{
		{Ctx: context.Background(), Op: policy.OpAdviseTransfers, Request: []policy.TransferSpec{testSpec(1, "wf")}},
		{Ctx: context.Background(), Op: policy.OpAdviseTransfers, Request: []policy.TransferSpec{testSpec(2, "wf")}},
	}
	errs := make(chan error, len(muts))
	for _, m := range muts {
		go func(m *policy.BatchMutation) { errs <- ctl.SubmitMutation(context.Background(), m, nil) }(m)
		select {
		case <-hold.held: // applied and appended; its commit waits on the held Sync
		case <-time.After(5 * time.Second):
			t.Fatal("mutation never reached its Sync")
		}
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- ctl.Drain(ctx)
	}()
	// Drain waits while both commits are held, and still after the first
	// is let through, while the second is in flight.
	for _, seq := range []uint64{0, 1} {
		hold.allow(seq)
		select {
		case <-drained:
			t.Fatalf("Drain returned with seq %d's commit in flight", seq+1)
		case <-time.After(30 * time.Millisecond):
		}
	}
	hold.allow(2)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := ps.Close(); err != nil {
		t.Fatalf("close store right after drain: %v", err)
	}
	for i, m := range muts {
		if err := <-errs; err != nil {
			t.Fatalf("submit: %v", err)
		}
		if m.Err != nil {
			t.Fatalf("mutation %d failed: %v", i, m.Err)
		}
	}

	live, _ := json.Marshal(svc.ExportState())
	cold, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps2, _, err := durable.OpenPolicyStore(dir, cold, durable.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	reopened, _ := json.Marshal(cold.ExportState())
	if !bytes.Equal(live, reopened) {
		t.Fatalf("reopened state differs from the live state:\nlive: %s\ncold: %s", live, reopened)
	}
	if n := len(cold.ExportState().Transfers); n != len(muts) {
		t.Fatalf("reopened state holds %d transfers, want %d", n, len(muts))
	}
}
