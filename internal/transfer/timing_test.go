package transfer

import (
	"context"
	"math"
	"sync"
	"testing"

	"policyflow/internal/policy"
	"policyflow/internal/simnet"
	"policyflow/internal/workflow"
)

// recordingAdvisor wraps a policy service and captures completion reports
// on Execute, the only path the PTT calls a policy.Executor through.
type recordingAdvisor struct {
	*policy.Service
	mu      sync.Mutex
	reports []policy.CompletionReport
}

func (r *recordingAdvisor) Execute(ctx context.Context, op string, payload any) (any, error) {
	if rep, ok := payload.(policy.CompletionReport); ok && op == policy.OpReportTransfers {
		r.mu.Lock()
		r.reports = append(r.reports, rep)
		r.mu.Unlock()
	}
	return r.Service.Execute(ctx, op, payload)
}

func TestTimingsReportedAccurately(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingAdvisor{Service: svc}
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	ptt, err := New(Config{Advisor: rec, Fabric: fab, DefaultStreams: 10})
	if err != nil {
		t.Fatal(err)
	}
	env.Go("task", func(p *simnet.Proc) {
		// 7 MB at 10 streams saturating 3.5 MB/s -> exactly 2 s.
		if err := ptt.ExecuteList(p, "wf", "c", []workflow.TransferOp{op(1, 7)}, 0); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.reports) != 1 || len(rec.reports[0].Timings) != 1 {
		t.Fatalf("reports = %+v", rec.reports)
	}
	tm := rec.reports[0].Timings[0]
	if math.Abs(tm.Seconds-2.0) > 1e-9 {
		t.Fatalf("timing = %v, want 2.0", tm.Seconds)
	}
}

func TestFailedTransfersHaveNoTimings(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingAdvisor{Service: svc}
	env := simnet.NewEnv(3)
	fab := NewSimFabric(env, func(pair policy.HostPair) simnet.PipeConfig {
		c := quietConfigFor(pair)
		c.OverloadKnee = 1
		c.FailureHazard = 100
		return c
	})
	ptt, err := New(Config{Advisor: rec, Fabric: fab, DefaultStreams: 8})
	if err != nil {
		t.Fatal(err)
	}
	env.Go("task", func(p *simnet.Proc) {
		ptt.ExecuteList(p, "wf", "c", []workflow.TransferOp{op(1, 100)}, 0)
	})
	env.Run(0)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.reports) != 1 {
		t.Fatalf("reports = %d", len(rec.reports))
	}
	rep := rec.reports[0]
	if len(rep.FailedIDs) != 1 || len(rep.Timings) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestNoPolicySessionPerPairChange(t *testing.T) {
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	ptt, err := New(Config{Fabric: fab, DefaultStreams: 4, SessionSetupSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Alternating pairs A,B,A force a session change at each step (no
	// policy grouping to save us).
	a1 := op(1, 1)
	b := op(2, 1)
	b.SourceURL = "http://other.example.org/f2"
	a2 := op(3, 1)
	env.Go("task", func(p *simnet.Proc) {
		if err := ptt.ExecuteList(p, "wf", "c", []workflow.TransferOp{a1, b, a2}, 0); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if got := ptt.Stats().Sessions; got != 3 {
		t.Fatalf("sessions = %d, want 3 (ungrouped alternation)", got)
	}
}
