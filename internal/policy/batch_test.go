package policy

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// recordingLog counts appends and syncs so tests can prove the batch path
// group-commits: many appended records, exactly one Sync call.
type recordingLog struct {
	seq     uint64
	appends []string
	syncs   []uint64
	syncErr error
}

func (l *recordingLog) Append(op string, payload any) (uint64, error) {
	l.seq++
	l.appends = append(l.appends, op)
	return l.seq, nil
}

func (l *recordingLog) Sync(seq uint64) error {
	l.syncs = append(l.syncs, seq)
	return l.syncErr
}

func TestExecuteBatchMixedKindsOneGroupCommit(t *testing.T) {
	s := newGreedy(t, 50, 4)
	log := &recordingLog{}
	s.SetMutationLog(log)

	advise := &BatchMutation{Op: OpAdviseTransfers, Request: []TransferSpec{spec(1, "wf1"), spec(2, "wf1")}}
	cleanup := &BatchMutation{Op: OpAdviseCleanups, Request: []CleanupSpec{{
		RequestID: "c-1", WorkflowID: "wf1", FileURL: srcBase + "/f001.dat",
	}}}
	s.ExecuteBatch([]*BatchMutation{advise, cleanup})

	if advise.Err != nil || cleanup.Err != nil {
		t.Fatalf("batch errors: advise=%v cleanup=%v", advise.Err, cleanup.Err)
	}
	adv, _ := advise.Result.(*TransferAdvice)
	if adv == nil || len(adv.Transfers) != 2 {
		t.Fatalf("transfer advice = %+v", advise.Result)
	}
	cadv, _ := cleanup.Result.(*CleanupAdvice)
	if cadv == nil || len(cadv.Cleanups) != 1 {
		t.Fatalf("cleanup advice = %+v", cleanup.Result)
	}
	if len(log.appends) != 2 {
		t.Fatalf("appended %d records, want 2: %v", len(log.appends), log.appends)
	}
	// The whole point of the batch: one fsync covers every record, at the
	// highest sequence the batch appended.
	if len(log.syncs) != 1 || log.syncs[0] != log.seq {
		t.Fatalf("syncs = %v, want exactly one at seq %d", log.syncs, log.seq)
	}

	// A follow-up report batch completes the lifecycle and acks matches.
	report := &BatchMutation{Op: OpReportTransfers, Request: CompletionReport{
		TransferIDs: []string{adv.Transfers[0].ID, adv.Transfers[1].ID},
	}}
	creport := &BatchMutation{Op: OpReportCleanups, Request: CleanupReport{
		CleanupIDs: []string{cadv.Cleanups[0].ID},
	}}
	s.ExecuteBatch([]*BatchMutation{report, creport})
	if report.Err != nil || creport.Err != nil {
		t.Fatalf("report errors: %v / %v", report.Err, creport.Err)
	}
	if ack, _ := report.Result.(*ReportAck); ack == nil || ack.Matched != 2 || ack.Unmatched != 0 {
		t.Fatalf("transfer ack = %+v", report.Result)
	}
	if ack, _ := creport.Result.(*ReportAck); ack == nil || ack.Matched != 1 {
		t.Fatalf("cleanup ack = %+v", creport.Result)
	}
	if len(log.syncs) != 2 {
		t.Fatalf("second batch synced %d times total, want 2", len(log.syncs))
	}
}

// TestExecuteBatchSkipsDeadContexts pins deadline propagation into the
// core: a mutation whose client already gave up is abandoned before any
// side effect — no WAL append, no advice, no fact changes.
func TestExecuteBatchSkipsDeadContexts(t *testing.T) {
	s := newGreedy(t, 50, 4)
	log := &recordingLog{}
	s.SetMutationLog(log)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	gone := &BatchMutation{Ctx: dead, Op: OpAdviseTransfers, Request: []TransferSpec{spec(1, "wf1")}}
	live := &BatchMutation{Ctx: context.Background(), Op: OpAdviseTransfers, Request: []TransferSpec{spec(2, "wf1")}}
	s.ExecuteBatch([]*BatchMutation{gone, live})

	if !errors.Is(gone.Err, context.Canceled) {
		t.Fatalf("dead-context mutation err = %v, want context.Canceled", gone.Err)
	}
	if gone.Result != nil {
		t.Fatal("dead-context mutation produced advice")
	}
	if live.Err != nil || live.Result == nil {
		t.Fatalf("live mutation: err=%v advice=%v", live.Err, live.Result)
	}
	if len(log.appends) != 1 {
		t.Fatalf("appended %d records, want 1 (abandoned mutation must not log)", len(log.appends))
	}
	// Only the live request's transfer entered Policy Memory.
	state := s.ExportState()
	if len(state.Transfers) != 1 || state.Transfers[0].RequestID != "req-2" {
		t.Fatalf("resident transfers = %+v, want only req-2", state.Transfers)
	}
}

// TestExecuteBatchSyncFailureFailsAllLogged: if the group commit cannot
// make the batch durable, no mutation in it may be acknowledged.
func TestExecuteBatchSyncFailureFailsAllLogged(t *testing.T) {
	s := newGreedy(t, 50, 4)
	log := &recordingLog{syncErr: errors.New("disk full")}
	s.SetMutationLog(log)

	a := &BatchMutation{Op: OpAdviseTransfers, Request: []TransferSpec{spec(1, "wf1")}}
	b := &BatchMutation{Op: OpAdviseTransfers, Request: []TransferSpec{spec(2, "wf1")}}
	invalid := &BatchMutation{Op: OpAdviseTransfers, Request: []TransferSpec{{RequestID: "bad"}}}
	s.ExecuteBatch([]*BatchMutation{a, b, invalid})

	for name, m := range map[string]*BatchMutation{"a": a, "b": b} {
		if m.Err == nil || m.Err.Error() == "" || !errorContains(m.Err, "disk full") {
			t.Errorf("mutation %s err = %v, want the sync failure", name, m.Err)
		}
		if m.Result != nil {
			t.Errorf("mutation %s kept its advice despite failed commit", name)
		}
	}
	// The validation failure keeps its own, earlier error: it never
	// appended a record, so the commit failure is not its story.
	if invalid.Err == nil || errorContains(invalid.Err, "disk full") {
		t.Errorf("invalid mutation err = %v, want its validation error", invalid.Err)
	}
}

func TestExecuteBatchEmptyAndMissingRequest(t *testing.T) {
	s := newGreedy(t, 50, 4)
	s.ExecuteBatch(nil) // must not panic

	empty := &BatchMutation{}
	mistyped := &BatchMutation{Op: OpAdviseTransfers, Request: CleanupReport{}}
	s.ExecuteBatch([]*BatchMutation{empty, mistyped})
	for name, m := range map[string]*BatchMutation{"op-less": empty, "mistyped": mistyped} {
		if !errors.Is(m.Err, ErrInvalidRequest) {
			t.Errorf("%s mutation err = %v, want ErrInvalidRequest", name, m.Err)
		}
	}
}

// TestExecuteBatchMatchesSequentialCalls: the service is deterministic,
// so a coalesced batch must leave Policy Memory exactly as the same
// mutations applied one call at a time would.
func TestExecuteBatchMatchesSequentialCalls(t *testing.T) {
	seqSvc := newGreedy(t, 50, 4)
	batchSvc := newGreedy(t, 50, 4)

	specs1 := []TransferSpec{spec(1, "wf1"), spec(2, "wf1")}
	specs2 := []TransferSpec{spec(3, "wf2")}

	adv1, err := seqSvc.AdviseTransfers(specs1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seqSvc.AdviseTransfers(specs2); err != nil {
		t.Fatal(err)
	}
	if _, err := seqSvc.ReportTransfers(CompletionReport{TransferIDs: []string{adv1.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}

	m1 := &BatchMutation{Op: OpAdviseTransfers, Request: specs1}
	m2 := &BatchMutation{Op: OpAdviseTransfers, Request: specs2}
	batchSvc.ExecuteBatch([]*BatchMutation{m1, m2})
	if m1.Err != nil || m2.Err != nil {
		t.Fatalf("batch errors: %v / %v", m1.Err, m2.Err)
	}
	m3 := &BatchMutation{Op: OpReportTransfers, Request: CompletionReport{TransferIDs: []string{m1.Result.(*TransferAdvice).Transfers[0].ID}}}
	batchSvc.ExecuteBatch([]*BatchMutation{m3})
	if m3.Err != nil {
		t.Fatal(m3.Err)
	}

	seqDump, batchDump := seqSvc.ExportState(), batchSvc.ExportState()
	if len(seqDump.Transfers) != len(batchDump.Transfers) {
		t.Fatalf("resident transfers: sequential %d, batched %d",
			len(seqDump.Transfers), len(batchDump.Transfers))
	}
	for i := range seqDump.Transfers {
		if seqDump.Transfers[i] != batchDump.Transfers[i] {
			t.Errorf("transfer %d diverged: seq=%+v batch=%+v",
				i, seqDump.Transfers[i], batchDump.Transfers[i])
		}
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}
