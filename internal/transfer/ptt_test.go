package transfer

import (
	"errors"
	"fmt"
	"testing"

	"policyflow/internal/policy"
	"policyflow/internal/simnet"
	"policyflow/internal/workflow"
)

func quietConfigFor(pair policy.HostPair) simnet.PipeConfig {
	cfg := simnet.WANConfig()
	cfg.FlowJitterSigma = 0
	cfg.CapacityJitterSigma = 0
	cfg.FailureHazard = 0
	return cfg
}

func op(i int, sizeMB float64) workflow.TransferOp {
	return workflow.TransferOp{
		FileName:  fmt.Sprintf("f%d", i),
		SourceURL: fmt.Sprintf("gsiftp://src.example.org/data/f%d", i),
		DestURL:   fmt.Sprintf("file://dst.example.org/scratch/f%d", i),
		SizeBytes: int64(sizeMB * (1 << 20)),
	}
}

func newPolicySvc(t *testing.T, threshold, defStreams int) *policy.Service {
	t.Helper()
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = threshold
	cfg.DefaultStreams = defStreams
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestExecuteListNoPolicy(t *testing.T) {
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	ptt, err := New(Config{Fabric: fab, DefaultStreams: 10, SessionSetupSeconds: 2, TransferSetupSeconds: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var took float64
	env.Go("task", func(p *simnet.Proc) {
		start := p.Now()
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 7), op(2, 7)}, 0); err != nil {
			t.Errorf("ExecuteList: %v", err)
		}
		took = p.Now() - start
	})
	env.Run(0)
	// Same host pair: one session setup (2s) + 2 x (0.5s setup + 2s
	// transfer: 10 streams saturate the 3.5 MB/s link, 7 MB each).
	if want := 2 + 2*(0.5+2.0); absDiff(took, want) > 1e-6 {
		t.Fatalf("took = %v, want %v", took, want)
	}
	st := ptt.Stats()
	if st.TransfersExecuted != 2 || st.Sessions != 1 || st.PolicyCalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesMoved != 14<<20 {
		t.Fatalf("bytes = %d", st.BytesMoved)
	}
}

func TestExecuteListWithPolicyGroupsAndReports(t *testing.T) {
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	svc := newPolicySvc(t, 50, 4)
	ptt, err := New(Config{
		Advisor: svc, Fabric: fab, DefaultStreams: 4,
		SessionSetupSeconds: 2, TransferSetupSeconds: 0.5, PolicyCallSeconds: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two host pairs interleaved; policy groups them into two sessions.
	o2 := op(2, 1)
	o2.SourceURL = "http://other.example.org/f2"
	ops := []workflow.TransferOp{op(1, 1), o2, op(3, 1)}
	env.Go("task", func(p *simnet.Proc) {
		if err := ptt.ExecuteList(p, "wf1", "c1", ops, 0); err != nil {
			t.Errorf("ExecuteList: %v", err)
		}
	})
	env.Run(0)
	st := ptt.Stats()
	if st.Sessions != 2 {
		t.Fatalf("sessions = %d, want 2 (grouped)", st.Sessions)
	}
	if st.TransfersExecuted != 3 || st.PolicyCalls != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Completion was reported: no in-flight transfers remain.
	snap := svc.Snapshot()
	if snap.InFlight != 0 || snap.StagedResources != 3 {
		t.Fatalf("service state = %+v", snap)
	}
}

func TestDuplicateSuppressionAcrossTasks(t *testing.T) {
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	svc := newPolicySvc(t, 50, 4)
	ptt, err := New(Config{Advisor: svc, Fabric: fab, DefaultStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Two workflows stage the same file, sequentially.
	env.Go("wf1", func(p *simnet.Proc) {
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 5)}, 0); err != nil {
			t.Error(err)
		}
		if err := ptt.ExecuteList(p, "wf2", "c1", []workflow.TransferOp{op(1, 5)}, 0); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	st := ptt.Stats()
	if st.TransfersExecuted != 1 || st.TransfersSuppressed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailedTransferReturnsError(t *testing.T) {
	cfgFor := func(pair policy.HostPair) simnet.PipeConfig {
		c := quietConfigFor(pair)
		c.OverloadKnee = 1
		c.FailureHazard = 10 // guaranteed failure under overload
		return c
	}
	env := simnet.NewEnv(3)
	fab := NewSimFabric(env, cfgFor)
	svc := newPolicySvc(t, 50, 8)
	ptt, err := New(Config{Advisor: svc, Fabric: fab, DefaultStreams: 8})
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	env.Go("task", func(p *simnet.Proc) {
		gotErr = ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 100)}, 0)
	})
	env.Run(0)
	if !errors.Is(gotErr, ErrTransfersFailed) {
		t.Fatalf("err = %v", gotErr)
	}
	// Failure was reported: streams released, file not marked staged, so
	// a retry is advised again (not suppressed).
	var retryErr error
	env2 := simnet.NewEnv(4)
	fab2 := NewSimFabric(env2, quietConfigFor)
	ptt2, _ := New(Config{Advisor: svc, Fabric: fab2, DefaultStreams: 8})
	env2.Go("retry", func(p *simnet.Proc) {
		retryErr = ptt2.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 100)}, 0)
	})
	env2.Run(0)
	if retryErr != nil {
		t.Fatalf("retry err = %v", retryErr)
	}
	if ptt2.Stats().TransfersSuppressed != 0 {
		t.Fatal("retry was wrongly suppressed as duplicate")
	}
}

func TestExecuteCleanupsWithPolicy(t *testing.T) {
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	svc := newPolicySvc(t, 50, 4)
	ptt, err := New(Config{Advisor: svc, Fabric: fab, DefaultStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	env.Go("task", func(p *simnet.Proc) {
		// Stage a file as wf1, then as wf2 (suppressed but associated).
		if err := ptt.ExecuteList(p, "wf1", "c", []workflow.TransferOp{op(1, 1)}, 0); err != nil {
			t.Error(err)
		}
		if err := ptt.ExecuteList(p, "wf2", "c", []workflow.TransferOp{op(1, 1)}, 0); err != nil {
			t.Error(err)
		}
		// wf1's cleanup is suppressed (wf2 uses the file).
		if err := ptt.ExecuteCleanups(p, "wf1", []string{op(1, 1).DestURL}); err != nil {
			t.Error(err)
		}
		// wf2's cleanup proceeds.
		if err := ptt.ExecuteCleanups(p, "wf2", []string{op(1, 1).DestURL}); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	st := ptt.Stats()
	if st.CleanupsSuppressed != 1 || st.CleanupsExecuted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if snap := svc.Snapshot(); snap.TrackedFiles != 0 {
		t.Fatalf("resource leaked: %+v", snap)
	}
}

func TestEmptyListNoop(t *testing.T) {
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	ptt, err := New(Config{Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	env.Go("task", func(p *simnet.Proc) {
		if err := ptt.ExecuteList(p, "wf", "c", nil, 0); err != nil {
			t.Error(err)
		}
		if err := ptt.ExecuteCleanups(p, "wf", nil); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if st := ptt.Stats(); st.TransfersExecuted != 0 || st.PolicyCalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing fabric accepted")
	}
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, nil)
	if _, err := New(Config{Fabric: fab, SessionSetupSeconds: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
	ptt, err := New(Config{Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	if ptt.cfg.DefaultStreams != 4 {
		t.Fatalf("default streams = %d", ptt.cfg.DefaultStreams)
	}
}

func TestSimFabricPipeReuse(t *testing.T) {
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	pair := policy.HostPair{Src: "a", Dst: "b"}
	p1 := fab.Pipe(pair)
	p2 := fab.Pipe(pair)
	if p1 != p2 {
		t.Fatal("pipe not reused for same pair")
	}
	other := fab.Pipe(policy.HostPair{Src: "a", Dst: "c"})
	if other == p1 {
		t.Fatal("distinct pairs share a pipe")
	}
	if len(fab.Pipes()) != 2 {
		t.Fatalf("pipes = %d", len(fab.Pipes()))
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestSeqIDMatchesSprintf pins seqID to the fmt.Sprintf verbs it replaced
// for request IDs and report keys: zero, one, the largest padded value,
// and values wider than the pad, which must print in full.
func TestSeqIDMatchesSprintf(t *testing.T) {
	for _, infix := range []string{"-", "-c", "-bk-"} {
		for _, n := range []int64{0, 1, 9, 10, 999999, 1000000, 1234567, 1234567890123} {
			for _, wf := range []string{"wf1", "montage-2deg-workflow-with-a-name-longer-than-the-stack-buffer"} {
				if got, want := seqID(wf, infix, n), fmt.Sprintf("%s%s%06d", wf, infix, n); got != want {
					t.Errorf("seqID(%q, %q, %d) = %q, want %q", wf, infix, n, got, want)
				}
			}
		}
	}
}
