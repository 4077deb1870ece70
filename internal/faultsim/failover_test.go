package faultsim

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"policyflow/internal/policy"
)

// longFailoverSchedule stretches a random schedule to 80 operations — room
// for five or six failover episodes back to back, so leadership moves away
// and comes back several times within one run.
func longFailoverSchedule(seed int64) Schedule {
	s := randomSchedule(seed)
	s.Config.OpCount = 80
	return s
}

// TestFailoverSim is the fail-back property: the same harness and schedule
// grammar as TestFaultSim, over fixed seeds and long schedules in which
// the pair fails over and back repeatedly — every promotion at exactly the
// next epoch, every deposed primary fenced and reconverged before it is
// promoted again. (TestFaultSim's shorter schedules mostly see one or two
// episodes each.)
func TestFailoverSim(t *testing.T) {
	runSchedules(t, 150, 20260808, longFailoverSchedule)
}

// TestFailoverSimDeterministicReplay proves the long schedules are as
// replayable as the short ones: one seed, one trace, one outcome.
func TestFailoverSimDeterministicReplay(t *testing.T) {
	for _, seed := range []int64{3, 11, 20260808} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkDeterministic(t, longFailoverSchedule(seed))
		})
	}
}

// TestFailoverDetectsLostWrite proves the durability detector works: a
// promotion whose standby never synced after an acknowledged write (the
// scripted episodes always sync first; this trace deliberately does not)
// must be flagged — the acked advise would otherwise silently vanish from
// the post-failover state.
func TestFailoverDetectsLostWrite(t *testing.T) {
	trace := []Op{
		adviseOp("r-1", "f-01"),
		{Kind: OpPartition, Replica: 0},
		{Kind: OpPromote, Replica: 1},
	}
	err := replayTrace(t.TempDir(), passingSchedule(), trace)
	if err == nil {
		t.Fatal("promotion of a stale standby dropped an acknowledged write undetected")
	}
	t.Logf("detected as: %v", err)
}

// TestFailoverDetectsSkippedCatchUp proves the promotion's final catch-up
// is what carries a write the standby has not synced yet, and that the
// checker sees it go missing. The primary acknowledges a write after the
// standby's last sync; the promotion then demotes it and catches up on its
// log. With the old primary's archive answering 503 the catch-up is
// skipped — the promotion goes ahead, as it must when the old primary
// cannot be read — and the new primary serves without the acknowledged
// write. The same trace with the archive readable passes.
func TestFailoverDetectsSkippedCatchUp(t *testing.T) {
	for _, skip := range []bool{false, true} {
		h, err := newHarness(t.TempDir(), passingSchedule())
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		for i, op := range []Op{
			adviseOp("r-1", "f-01"),
			{Kind: OpStandbySync},
			adviseOp("r-2", "f-02"),
		} {
			if err := h.exec(op); err != nil {
				t.Fatalf("op %d (%s): %v", i, op.Kind, err)
			}
		}
		if skip {
			old := h.replicas[0].server
			h.router.register(h.replicas[0].host, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/state/archive" {
					http.Error(w, "archive unreadable", http.StatusServiceUnavailable)
					return
				}
				old.ServeHTTP(w, r)
			}))
		}
		err = h.exec(Op{Kind: OpPromote, Replica: 1})
		switch {
		case !skip && err != nil:
			t.Fatalf("promotion with its catch-up failed: %v", err)
		case skip && err == nil:
			t.Fatal("a promotion that skipped its catch-up lost an acknowledged write undetected")
		case skip && !strings.Contains(err.Error(), "acknowledged state lost across failover"):
			t.Fatalf("flagged for the wrong reason: %v", err)
		}
	}
}

// TestFailoverDetectsWrongEpochAck proves the single-epoch-ack detector
// works. The old primary is partitioned through a promotion and healed,
// but nothing has contacted it yet, so it still believes it is primary at
// the old epoch. A workflow process that just started — fresh clients, no
// leader hint, no observed epoch to depose it with — writes to it first and
// is acknowledged at the stale epoch: exactly the split-brain window the
// scripted episodes close with the fence probe, and the harness must flag
// the ack.
func TestFailoverDetectsWrongEpochAck(t *testing.T) {
	h, err := newHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i, op := range []Op{
		adviseOp("r-1", "f-01"),
		{Kind: OpStandbySync},
		{Kind: OpPartition, Replica: 0},
		{Kind: OpPromote, Replica: 1},
		adviseOp("r-2", "f-02"),
		{Kind: OpHeal},
	} {
		if err := h.exec(op); err != nil {
			t.Fatalf("op %d (%s): %v", i, op.Kind, err)
		}
	}
	if err := h.connectClients(); err != nil {
		t.Fatal(err)
	}
	err = h.exec(adviseOp("r-3", "f-03"))
	if err == nil {
		t.Fatal("a write acknowledged by the deposed primary at the old epoch went undetected")
	}
	if !strings.Contains(err.Error(), "acknowledged at epoch 1, expected 2") {
		t.Fatalf("flagged for the wrong reason: %v", err)
	}
}

// TestFailoverEpisodeReplay replays one full hand-written episode — sync,
// partition, promote, writes on the new primary, heal, fence probe,
// demote, sync — and requires it to pass: the happy path of the fencing
// protocol, step for step, under the harness's full invariant battery.
func TestFailoverEpisodeReplay(t *testing.T) {
	probe := policy.TransferSpec{
		RequestID:  "r-probe",
		WorkflowID: "wf-a",
		SourceURL:  "gsiftp://hostA/data/f-09",
		DestURL:    "gsiftp://hostB/data/f-09",
	}
	trace := []Op{
		adviseOp("r-1", "f-01"),
		{Kind: OpStandbySync},
		{Kind: OpPartition, Replica: 0},
		{Kind: OpPromote, Replica: 1},
		adviseOp("r-2", "f-02"),
		{Kind: OpHeal},
		{Kind: OpFenceProbe, Replica: 0, Specs: []policy.TransferSpec{probe}},
		{Kind: OpDemote, Replica: 0},
		{Kind: OpStandbySync},
		adviseOp("r-3", "f-03"),
	}
	if err := replayTrace(t.TempDir(), passingSchedule(), trace); err != nil {
		t.Fatalf("scripted failover episode violated an invariant: %v", err)
	}
}
