package experiment

import (
	"bytes"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/synth"
)

// TestTraceIsProvenance runs a workflow with a collector tracer and an
// attached registry, then checks that the figures' quantities can be
// regenerated from the event stream alone: the trace summary must agree
// with the live Metrics the harness collected during the run.
func TestTraceIsProvenance(t *testing.T) {
	w, err := synth.Generate(synth.Config{Shape: synth.FanOut, Jobs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.Collector
	reg := obs.NewRegistry()
	m, err := Run(Scenario{
		Workflow:       w,
		UsePolicy:      true,
		Threshold:      50,
		DefaultStreams: 4,
		Seed:           3,
		Obs:            reg,
		Tracer:         &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
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

	// The registry captured the same run: executor and transfer series
	// must be present and consistent with the trace.
	var sb bytes.Buffer
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, frag := range []string{
		"# TYPE transfer_duration_seconds histogram",
		"# TYPE executor_queue_wait_seconds histogram",
		"# TYPE policy_transfers_advised_total counter",
	} {
		if !bytes.Contains(sb.Bytes(), []byte(frag)) {
			t.Errorf("registry scrape missing %q:\n%s", frag, text[:min(len(text), 2000)])
		}
	}

	// Round-trip through JSONL: the decoded stream summarizes identically.
	var buf bytes.Buffer
	jt := obs.NewJSONLTracer(&buf)
	for _, e := range events {
		jt.Emit(e)
	}
	if err := jt.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := SummarizeTrace(decoded)
	if s2.Completed != s.Completed || s2.BytesCompleted != s.BytesCompleted ||
		s2.Suppressed != s.Suppressed || s2.TransferSeconds != s.TransferSeconds {
		t.Errorf("JSONL round-trip changed the summary:\n got %+v\nwant %+v", s2, s)
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
