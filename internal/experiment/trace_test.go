package experiment

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/synth"
)

// TestTraceIsProvenance runs a workflow recording a JSONL trace, then checks that the figures' quantities can be
// regenerated from the decoded event stream alone: the trace summary must agree
// with the live Metrics the harness collected during the run.
func TestTraceIsProvenance(t *testing.T) {
	w, err := synth.Generate(synth.Config{Shape: synth.FanOut, Jobs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	tr := obs.NewJSONLTracer(&trace)
	m, err := Run(Scenario{
		Workflow:       w,
		UsePolicy:      true,
		Threshold:      50,
		DefaultStreams: 4,
		Seed:           3,
		Tracer:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events collected")
	}
	if err := CheckTraceConsistency(events); err != nil {
		t.Fatal(err)
	}
	s := SummarizeTrace(events)
	if int64(s.Completed) != m.TransfersExecuted {
		t.Errorf("trace completed = %d, metrics executed = %d", s.Completed, m.TransfersExecuted)
	}
	if int64(s.Suppressed) != m.TransfersSuppressed {
		t.Errorf("trace suppressed = %d, metrics suppressed = %d", s.Suppressed, m.TransfersSuppressed)
	}
	if int64(s.Failed) != m.TransferFailures {
		t.Errorf("trace failed = %d, metrics failures = %d", s.Failed, m.TransferFailures)
	}
	if s.Started != s.Completed+s.Failed {
		t.Errorf("started %d != completed %d + failed %d", s.Started, s.Completed, s.Failed)
	}
	if s.Submitted != s.Advised+s.Suppressed {
		t.Errorf("submitted %d != advised %d + suppressed %d", s.Submitted, s.Advised, s.Suppressed)
	}
	if s.Advised == 0 || s.BytesCompleted == 0 || len(s.Workflows) != 1 {
		t.Errorf("implausible summary: %+v", s)
	}
}

func TestCheckTraceConsistencyRejectsBadStreams(t *testing.T) {
	bad := [][]obs.Event{
		{{Type: obs.EventAdvised, TransferID: "t-1"}},
		{{Type: obs.EventSubmitted, TransferID: "t-1"}, {Type: obs.EventStarted, TransferID: "t-1"}},
		{
			{Type: obs.EventSubmitted, TransferID: "t-1"},
			{Type: obs.EventSuppressed, TransferID: "t-1"},
			{Type: obs.EventAdvised, TransferID: "t-1"},
		},
		{
			{Type: obs.EventSubmitted, TransferID: "t-1"},
			{Type: obs.EventSubmitted, TransferID: "t-1"},
		},
	}
	for i, events := range bad {
		if err := CheckTraceConsistency(events); err == nil {
			t.Errorf("case %d: invalid stream accepted", i)
		}
	}
}

// TraceSummary is the per-run accounting reconstructed from a lifecycle
// event stream — the same quantities the harness otherwise reads out of
// the live PTT and policy-service state, so figures can be regenerated
// from a recorded JSONL trace long after the run's memory is gone.
type TraceSummary struct {
	// Submitted counts transfer requests the policy service received.
	Submitted int
	// Advised counts transfers returned for execution.
	Advised int
	// Suppressed counts transfers removed, split by reason.
	Suppressed         int
	SuppressedByReason map[string]int
	// Started counts transfers the PTT began executing.
	Started int
	// Completed and Failed count reported outcomes.
	Completed int
	Failed    int
	// Cleaned counts executed file deletions.
	Cleaned int
	// BytesCompleted sums the payload of completed transfers.
	BytesCompleted int64
	// BytesByPair splits BytesCompleted per host pair.
	BytesByPair map[policy.HostPair]int64
	// TransferSeconds sums the measured durations of completed transfers.
	TransferSeconds float64
	// Workflows lists the distinct workflow IDs seen, sorted.
	Workflows []string
}

// SummarizeTrace folds a lifecycle event stream into per-run accounting.
// Events may come from an obs.Collector (embedded runs) or from
// obs.ReadEvents over a JSONL file recorded with policyserver -trace-out.
func SummarizeTrace(events []obs.Event) TraceSummary {
	s := TraceSummary{
		SuppressedByReason: make(map[string]int),
		BytesByPair:        make(map[policy.HostPair]int64),
	}
	wfs := make(map[string]bool)
	for _, e := range events {
		if e.WorkflowID != "" {
			wfs[e.WorkflowID] = true
		}
		switch e.Type {
		case obs.EventSubmitted:
			s.Submitted++
		case obs.EventAdvised:
			s.Advised++
		case obs.EventSuppressed:
			s.Suppressed++
			s.SuppressedByReason[e.Reason]++
		case obs.EventStarted:
			s.Started++
		case obs.EventCompleted:
			s.Completed++
			s.BytesCompleted += e.SizeBytes
			s.BytesByPair[policy.HostPair{Src: e.SourceHost, Dst: e.DestHost}] += e.SizeBytes
			s.TransferSeconds += e.Seconds
		case obs.EventFailed:
			s.Failed++
		case obs.EventCleaned:
			s.Cleaned++
		}
	}
	for wf := range wfs {
		s.Workflows = append(s.Workflows, wf)
	}
	sort.Strings(s.Workflows)
	return s
}

// CheckTraceConsistency verifies the lifecycle invariants of an event
// stream: every transfer's events appear in order (submitted before
// advised/suppressed, advised before started, started before
// completed/failed) and no transfer is both advised and suppressed. It
// returns the first violation found, or nil — the decoder-side guarantee
// that a recorded trace is a faithful provenance record.
func CheckTraceConsistency(events []obs.Event) error {
	const (
		seenSubmitted = 1 << iota
		seenAdvised
		seenSuppressed
		seenStarted
		seenDone
	)
	state := make(map[string]int)
	for i, e := range events {
		if e.TransferID == "" {
			continue
		}
		st := state[e.TransferID]
		fail := func(msg string) error {
			return fmt.Errorf("experiment: trace event %d (%s %s): %s", i, e.Type, e.TransferID, msg)
		}
		switch e.Type {
		case obs.EventSubmitted:
			if st != 0 {
				return fail("submitted twice")
			}
			st |= seenSubmitted
		case obs.EventAdvised:
			if st&seenSubmitted == 0 {
				return fail("advised before submitted")
			}
			if st&seenSuppressed != 0 {
				return fail("advised after suppressed")
			}
			st |= seenAdvised
		case obs.EventSuppressed:
			if st&seenSubmitted == 0 {
				return fail("suppressed before submitted")
			}
			if st&seenAdvised != 0 {
				return fail("suppressed after advised")
			}
			st |= seenSuppressed
		case obs.EventStarted:
			if st&seenAdvised == 0 {
				return fail("started before advised")
			}
			st |= seenStarted
		case obs.EventCompleted, obs.EventFailed:
			if st&seenAdvised == 0 {
				return fail("finished before advised")
			}
			st |= seenDone
		}
		state[e.TransferID] = st
	}
	return nil
}
