package faultsim

import (
	"encoding/json"
	"fmt"
	"testing"

	"policyflow/internal/policy"
)

// livenessSchedule is the fixed configuration for the scripted reclamation
// scenario: greedy allocation, leases enabled with a 10-unit TTL, no
// injected faults.
func livenessSchedule() Schedule {
	return Schedule{Seed: 7, Config: ScheduleConfig{
		Algorithm:      policy.AlgoGreedy,
		Threshold:      8,
		DefaultStreams: 2,
		ClusterFactor:  1,
		FaultProb:      0,
		LeaseTTL:       10,
	}}
}

func wfAdviseOp(wf, reqID string, files ...string) Op {
	op := Op{Kind: OpAdvise}
	for _, f := range files {
		op.Specs = append(op.Specs, policy.TransferSpec{
			RequestID:  reqID + "-" + f,
			WorkflowID: wf,
			SourceURL:  "gsiftp://hostA/data/" + f,
			DestURL:    "gsiftp://hostB/scratch/" + f,
		})
	}
	return op
}

// TestLeaseReclamationScenario is the acceptance scenario for lease-based
// liveness: two workflows share a staged file, one crashes mid-run holding
// streams and reference counts, and after its lease expires the survivor
// finds the streams released, the shared file still protected by its own
// reference, and the orphaned file re-stageable. Every step also runs the
// harness's standing checks: the model invariants on the oracle and
// byte-for-byte primary/oracle agreement. The standby learns all of it by
// replaying the primary's log, and the crash-restart steps at the end prove
// the reclamation replays from each node's own WAL too: each must recover
// to exactly its pre-crash (post-reclamation) state.
func TestLeaseReclamationScenario(t *testing.T) {
	h, err := newHarness(t.TempDir(), livenessSchedule())
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

	// wf-a stages two files (2 streams each -> 4 allocated); wf-b requests
	// one of them and is suppressed against the in-flight transfer, which
	// registers it as a second user of f-01.
	mustStep(wfAdviseOp("wf-a", "ra", "f-01", "f-02"))
	mustStep(wfAdviseOp("wf-b", "rb", "f-01"))

	d := h.oracle.ExportState()
	if len(d.Transfers) != 2 || len(d.Leases) != 2 {
		t.Fatalf("setup: %d transfers, %d leases, want 2 and 2", len(d.Transfers), len(d.Leases))
	}
	var allocated int
	for _, l := range d.Ledgers {
		allocated += l.Allocated
	}
	if allocated != 4 {
		t.Fatalf("setup: %d streams allocated, want 4", allocated)
	}

	// wf-a's client dies without reporting anything. The service cannot
	// know yet; the holdings stay pinned.
	mustStep(Op{Kind: OpClientCrash, Workflow: "wf-a"})

	// Time passes but not enough to expire anyone; wf-b proves it is alive.
	mustStep(Op{Kind: OpAdvanceClock, Now: 6})
	mustStep(Op{Kind: OpRenewLease, Workflow: "wf-b"})

	// The clock passes wf-a's deadline (10): its lease expires and the
	// reclamation rules fire.
	mustStep(Op{Kind: OpAdvanceClock, Now: 12})

	d = h.oracle.ExportState()
	if len(d.Transfers) != 0 {
		t.Fatalf("after expiry: %d in-flight transfers, want 0", len(d.Transfers))
	}
	for _, l := range d.Ledgers {
		if l.Allocated != 0 {
			t.Fatalf("after expiry: %d streams leaked on %s->%s", l.Allocated, l.Src, l.Dst)
		}
	}
	if len(d.Leases) != 1 || d.Leases[0].Owner != "wf-b" || d.Leases[0].Deadline != 16 {
		t.Fatalf("after expiry: leases = %+v, want only wf-b at deadline 16", d.Leases)
	}
	// Reference-count conservation: wf-a's references are gone wholesale,
	// wf-b's single reference to the shared file survives.
	users := map[string][]policy.UserCount{}
	for _, r := range d.Resources {
		users[r.DestURL] = r.Users
	}
	shared := users["gsiftp://hostB/scratch/f-01"]
	if len(shared) != 1 || shared[0].WorkflowID != "wf-b" || shared[0].Count != 1 {
		t.Fatalf("after expiry: shared file users = %+v, want wf-b x1", shared)
	}
	if orphan := users["gsiftp://hostB/scratch/f-02"]; len(orphan) != 0 {
		t.Fatalf("after expiry: orphaned file users = %+v, want none", orphan)
	}

	// The orphaned file is re-stageable: the dead workflow's in-flight
	// transfer no longer suppresses wf-b's advise. (The model predicts a
	// grant, so a suppression would also fail the step itself.)
	mustStep(wfAdviseOp("wf-b", "rb2", "f-02"))
	d = h.oracle.ExportState()
	if len(d.Transfers) != 1 || d.Transfers[0].WorkflowID != "wf-b" ||
		d.Transfers[0].DestURL != "gsiftp://hostB/scratch/f-02" {
		t.Fatalf("survivor re-stage: transfers = %+v, want one wf-b transfer of f-02", d.Transfers)
	}

	// Sync the standby, then crash-restart each durable replica: recovery
	// replays the logged advises, renewals and clock advances, so the
	// reclamation must be reproduced exactly (stepCrash compares pre- and
	// post-crash state).
	mustStep(Op{Kind: OpStandbySync})
	mustStep(Op{Kind: OpCrash, Replica: 0})
	mustStep(Op{Kind: OpTornCrash, Replica: 1})

	// Both replicas converge byte-identically, on each other and on the
	// fault-free oracle.
	dump0, err := json.Marshal(h.replicas[0].svc.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	dump1, err := json.Marshal(h.replicas[1].svc.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := json.Marshal(h.oracle.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if string(dump0) != string(dump1) {
		t.Fatalf("replica dumps differ after replaying reclamation:\n  r0 %s\n  r1 %s", dump0, dump1)
	}
	if string(dump0) != string(oracle) {
		t.Fatalf("replicas diverge from oracle:\n  replica %s\n  oracle  %s", dump0, oracle)
	}
}

// TestLeaseLivenessProperty forces leases on and runs randomized schedules
// of advises, reports, cleanups, renewals, client crashes and clock
// advances across the three generator workflows. The harness checks the
// model after every step, and with LeaseTTL > 0 the model's checkDump
// enforces the liveness invariant throughout: the set of workflows holding
// reference counts, in-flight transfers or in-progress cleanups is exactly
// a subset of the live (unexpired) lease holders, and stream ledgers always
// equal the in-flight grant sum — i.e. expiry reclaims everything, leaks
// nothing, and never touches a survivor's state.
func TestLeaseLivenessProperty(t *testing.T) {
	const seeds = 60
	for i := 0; i < seeds; i++ {
		seed := int64(31000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sched := randomSchedule(seed)
			sched.Config.LeaseTTL = 2 + float64(seed%19) // force liveness on
			sched.Config.OpCount = 30
			trace, _, err := runSchedule(t.TempDir(), sched)
			if err != nil {
				j, _ := json.MarshalIndent(trace, "", "  ")
				t.Fatalf("liveness invariant violated at seed %d: %v\ntrace:\n%s", seed, err, j)
			}
		})
	}
}
