package faultsim

import (
	"strings"
	"testing"

	"policyflow/internal/policy"
)

// TestDecisionRecordsSurviveRetries checks decision provenance under the
// faults that make exactly-once hard: a dropped response (the client
// retries with the same idempotency key and is answered from the replay
// cache) and a duplicated delivery. The primary must commit exactly one
// decision record per acknowledged advise, carrying the WAL sequence it was
// logged under and the trace ID of the client's logical operation; the
// standby, which learns of the advise only by replaying the primary's log,
// must end up with exactly one record too.
func TestDecisionRecordsSurviveRetries(t *testing.T) {
	h, err := newHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if err := h.exec(adviseOp("r-1", "f-01",
		FaultSpec{Replica: 0, Kind: FaultDropResponse},
		FaultSpec{Replica: 0, Kind: FaultDuplicate},
	)); err != nil {
		t.Fatal(err)
	}
	if err := h.exec(Op{Kind: OpStandbySync}); err != nil {
		t.Fatal(err)
	}

	for i, r := range h.replicas {
		if got := r.svc.DecisionCount(policy.OpAdviseTransfers); got != 1 {
			t.Fatalf("replica %d committed %d advise decision records, want exactly 1", i, got)
		}
		recs := r.svc.Decisions(0)
		if len(recs) != 1 {
			t.Fatalf("replica %d ring holds %d records, want 1", i, len(recs))
		}
		rec := recs[0]
		if rec.Op != policy.OpAdviseTransfers {
			t.Fatalf("replica %d record op = %q", i, rec.Op)
		}
		if len(rec.RulesFired) == 0 {
			t.Fatalf("replica %d record lists no rule firings", i)
		}
		advised := 0
		for _, line := range rec.Lines {
			if line.Outcome == policy.OutcomeAdvised && strings.HasSuffix(line.FileURL, "f-01") {
				advised++
			}
		}
		if advised != 1 {
			t.Fatalf("replica %d record lines = %+v, want one advised f-01", i, rec.Lines)
		}
	}
	// Only the primary served the request: its record carries the request's
	// trace and its own log position.
	primary := h.replicas[0].svc.Decisions(0)[0]
	if primary.WALSeq == 0 {
		t.Fatal("primary's record has no WAL sequence")
	}
	if primary.TraceID == "" {
		t.Fatal("primary's record carries no trace ID")
	}

	// The follow-up report (fault-free) adds exactly one report record per
	// replica and leaves the advise count alone.
	ids := sortedKeys(h.model.inProgress, nil)
	if err := h.exec(Op{Kind: OpReport, Report: &policy.CompletionReport{TransferIDs: ids}}); err != nil {
		t.Fatal(err)
	}
	if err := h.exec(Op{Kind: OpStandbySync}); err != nil {
		t.Fatal(err)
	}
	for i, r := range h.replicas {
		if got := r.svc.DecisionCount(policy.OpAdviseTransfers); got != 1 {
			t.Fatalf("replica %d advise records after report = %d, want 1", i, got)
		}
		if got := r.svc.DecisionCount(policy.OpReportTransfers); got != 1 {
			t.Fatalf("replica %d report records = %d, want 1", i, got)
		}
	}
}

// TestHarnessDetectsDecisionMiscount proves the per-step provenance check
// is live: skewing the acknowledged-op ledger must make the next check
// report a mismatch between committed records and acknowledged calls.
func TestHarnessDetectsDecisionMiscount(t *testing.T) {
	h, err := newHarness(t.TempDir(), passingSchedule())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.exec(adviseOp("r-1", "f-01")); err != nil {
		t.Fatal(err)
	}
	h.acked[policy.OpAdviseTransfers]-- // simulate a duplicate decision record
	if err := h.checkDecisions(); err == nil {
		t.Fatal("decision-record miscount went undetected")
	}
}
