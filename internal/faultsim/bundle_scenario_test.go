package faultsim

import (
	"encoding/json"
	"testing"

	"policyflow/internal/bundle"
	"policyflow/internal/policy"
)

func scenarioBundle(t *testing.T, version, algo string, streams, threshold, clusterFactor int, pairs ...bundle.PairThreshold) []byte {
	t.Helper()
	b := bundle.Bundle{
		SchemaVersion:    bundle.SchemaVersion,
		Version:          version,
		Description:      "scenario bundle",
		Algorithm:        algo,
		DefaultStreams:   streams,
		MinStreams:       1,
		DefaultThreshold: threshold,
		ClusterFactor:    clusterFactor,
		PairThresholds:   pairs,
	}
	doc, err := json.Marshal(&b)
	if err != nil {
		t.Fatalf("marshal scenario bundle: %v", err)
	}
	return doc
}

// TestBundleActivationScenario is the acceptance scenario for policy-as-
// data: bundle activations and a rollback interleaved with response loss,
// duplicate delivery, torn-tail crashes and plain crash-restarts. Every
// step also runs the harness's standing checks — the order-free model on
// the oracle, byte-for-byte primary/oracle agreement, exactly-once
// decision provenance, and the bundle stamp on the newest decision record
// — so the scenario proves activation is atomic, durable, idempotent and
// attributable without any extra assertions for those properties.
func TestBundleActivationScenario(t *testing.T) {
	sched := Schedule{Seed: 11, Config: ScheduleConfig{
		Algorithm:      policy.AlgoGreedy,
		Threshold:      4,
		DefaultStreams: 2,
		ClusterFactor:  1,
		FaultProb:      0,
	}}
	h, err := newHarness(t.TempDir(), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	mustStep := func(op Op) {
		t.Helper()
		if err := h.exec(op); err != nil {
			t.Fatalf("step %+v: %v", op, err)
		}
	}

	// Work under the compiled-in v0 bundle.
	mustStep(wfAdviseOp("wf-a", "ra", "f-01", "f-02"))
	if v := h.oracle.ActiveBundle().Version; v != policy.BootstrapBundleVersion {
		t.Fatalf("boot bundle version %q, want %q", v, policy.BootstrapBundleVersion)
	}

	// Activate v1 under response loss and duplicate delivery: the client
	// retries, the idempotency layer replays, and exactly one activation
	// must be logged.
	docA := scenarioBundle(t, "scenario-v1", bundle.AlgoGreedy, 3, 6, 1,
		bundle.PairThreshold{SourceHost: "hostA", DestHost: "hostB", Max: 5})
	mustStep(Op{Kind: OpActivateBundle, BundleDoc: docA, Faults: []FaultSpec{
		{Replica: 0, Kind: FaultDropResponse},
		{Replica: 0, Kind: FaultDuplicate},
	}})
	active := h.oracle.ActiveBundle()
	if active.Version != "scenario-v1" || active.DefaultThreshold != 6 || active.DefaultStreams != 3 {
		t.Fatalf("post-activation bundle %+v, want scenario-v1 threshold 6 streams 3", active)
	}
	if got := h.oracle.DecisionCount(policy.OpActivateBundle); got != 1 {
		t.Fatalf("%d activation records after faulted activation, want exactly 1", got)
	}

	// Re-activating the same document is an idempotent no-op: nothing is
	// appended and nothing is recorded.
	mustStep(Op{Kind: OpActivateBundle, BundleDoc: docA})
	if got := h.oracle.DecisionCount(policy.OpActivateBundle); got != 1 {
		t.Fatalf("%d activation records after no-op re-activation, want 1", got)
	}

	// Torn crash: replica 0 recovers by replaying the activation past the
	// torn WAL tail (Step compares pre- and post-crash state exactly).
	mustStep(Op{Kind: OpTornCrash, Replica: 0})

	// New work is shaped — and stamped — by the active bundle.
	mustStep(wfAdviseOp("wf-b", "rb", "f-03"))
	recs := h.oracle.Decisions(0)
	if got := recs[len(recs)-1].Bundle; got != "scenario-v1" {
		t.Fatalf("advice under scenario-v1 stamped %q", got)
	}

	// Switch algorithms entirely: balanced v2 re-materializes cluster
	// ledgers from in-flight transfers, then survives a crash-restart of
	// the standby that replayed it from the primary's log.
	docB := scenarioBundle(t, "scenario-v2", bundle.AlgoBalanced, 1, 8, 2)
	mustStep(Op{Kind: OpActivateBundle, BundleDoc: docB})
	mustStep(Op{Kind: OpStandbySync})
	mustStep(Op{Kind: OpCrash, Replica: 1})
	mustStep(wfAdviseOp("wf-a", "rc", "f-04"))

	// Roll back to v1 without a restart: algorithm and thresholds return.
	mustStep(Op{Kind: OpRollbackBundle})
	active = h.oracle.ActiveBundle()
	if active.Version != "scenario-v1" || active.DefaultThreshold != 6 || active.Algorithm != bundle.AlgoGreedy {
		t.Fatalf("post-rollback bundle %+v, want scenario-v1 greedy threshold 6", active)
	}

	// Crash-recover both replicas: the whole activation history — two
	// activations and a rollback — replays to the same state, and work
	// continues under the rolled-back bundle.
	mustStep(Op{Kind: OpStandbySync})
	mustStep(Op{Kind: OpCrash, Replica: 0})
	mustStep(Op{Kind: OpTornCrash, Replica: 1})
	mustStep(wfAdviseOp("wf-b", "rd", "f-05"))
	recs = h.oracle.Decisions(0)
	if got := recs[len(recs)-1].Bundle; got != "scenario-v1" {
		t.Fatalf("advice after rollback stamped %q, want scenario-v1", got)
	}
}

// TestScheduleGeneratorDrawsBundleOps guards the generator's coverage:
// randomized schedules must actually exercise activations and rollbacks,
// or the model-checking of bundle semantics silently stops happening.
func TestScheduleGeneratorDrawsBundleOps(t *testing.T) {
	activations, rollbacks := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		sched := randomSchedule(seed)
		trace, _, err := runSchedule(t.TempDir(), sched)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, op := range trace {
			switch op.Kind {
			case OpActivateBundle:
				activations++
			case OpRollbackBundle:
				rollbacks++
			}
		}
	}
	if activations == 0 || rollbacks == 0 {
		t.Errorf("60 schedules drew %d activations and %d rollbacks, want both > 0", activations, rollbacks)
	}
}
