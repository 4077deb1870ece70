package transfer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/simnet"
	"policyflow/internal/workflow"
)

// flakyAdvisor wraps a policy service behind a toggleable outage, with an
// idempotency cache mirroring the REST stack's semantics: a report is
// applied at most once per idempotency key, replays are served from the
// cache, and a "lost response" applies (and caches) the report on the
// server before the client sees a transport error. It is a
// policy.Executor, so the PTT calls it through Execute alone; its four
// plain methods, behind the same outage, are what a plainAdvisor exposes.
type flakyAdvisor struct {
	svc *policy.Service

	mu             sync.Mutex
	down           bool
	busy           bool
	busyNextReport bool
	loseNextReport bool
	failNextReport bool
	cache          map[string]any
	replays        int
	renewals       int
}

var errUnreachable = errors.New("policy service unreachable")

// busyError mimics the REST client's 429 surface: any error exposing
// HTTPStatus() int is recognized by the PTT's isBusy without this package
// importing policyhttp.
type busyError struct{}

func (busyError) Error() string   { return "policy service busy: shed by admission control" }
func (busyError) HTTPStatus() int { return 429 }

func (f *flakyAdvisor) gate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return errUnreachable
	}
	if f.busy {
		return busyError{}
	}
	return nil
}

// gateReport is gate for a completion report: it also fails the report
// armed by failNextReport, before the service sees it.
func (f *flakyAdvisor) gateReport() error {
	if err := f.gate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNextReport {
		f.failNextReport = false
		return errUnreachable
	}
	return nil
}

func (f *flakyAdvisor) Execute(ctx context.Context, op string, payload any) (any, error) {
	if op != policy.OpReportTransfers && op != policy.OpReportCleanups {
		if err := f.gate(); err != nil {
			return nil, err
		}
		if op == policy.OpRenewLease {
			f.mu.Lock()
			f.renewals++
			f.mu.Unlock()
		}
		return f.svc.Execute(ctx, op, payload)
	}
	if err := f.gateReport(); err != nil {
		return nil, err
	}
	key := policy.IdempotencyKey(ctx)
	if key == "" {
		return nil, fmt.Errorf("%s sent without an idempotency key", op)
	}
	f.mu.Lock()
	if op == policy.OpReportTransfers && f.busyNextReport {
		f.busyNextReport = false
		f.mu.Unlock()
		return nil, busyError{}
	}
	if ack, ok := f.cache[key]; ok {
		f.replays++
		f.mu.Unlock()
		return ack, nil
	}
	lose := op == policy.OpReportTransfers && f.loseNextReport
	if lose {
		f.loseNextReport = false
	}
	f.mu.Unlock()
	ack, err := f.svc.Execute(ctx, op, payload)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.cache[key] = ack
	f.mu.Unlock()
	if lose {
		// The server applied and cached the report; the response was lost
		// on the way back.
		return nil, errUnreachable
	}
	return ack, nil
}

func (f *flakyAdvisor) AdviseTransfers(specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.svc.AdviseTransfers(specs)
}

func (f *flakyAdvisor) AdviseCleanups(specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.svc.AdviseCleanups(specs)
}

func (f *flakyAdvisor) ReportTransfers(rep policy.CompletionReport) (*policy.ReportAck, error) {
	if err := f.gateReport(); err != nil {
		return nil, err
	}
	return f.svc.ReportTransfers(rep)
}

func (f *flakyAdvisor) ReportCleanups(rep policy.CleanupReport) (*policy.ReportAck, error) {
	if err := f.gateReport(); err != nil {
		return nil, err
	}
	return f.svc.ReportCleanups(rep)
}

// plainAdvisor exposes only an Advisor's four plain methods: the shape of
// an advisor that wraps the plain calls (a timing wrapper), which the PTT
// reaches through advisorExecutor.
type plainAdvisor struct{ Advisor }

// TestDegradedModeFailOpenAndReconcile drives the PTT's circuit breaker
// through a full outage cycle: a lost report response opens the breaker and
// queues the report; a staging list during the outage still completes with
// fail-open defaults; a cleanup during the outage is deferred (fail safe);
// and after the cooldown the first successful call reconciles — re-acquires
// the lease and drains the backlog reusing the original idempotency key, so
// the report is applied exactly once (the replay is served from cache and
// the service counts zero unmatched IDs).
func TestDegradedModeFailOpenAndReconcile(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.DefaultThreshold = 50
	cfg.DefaultStreams = 4
	cfg.LeaseTTL = 120
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.Instrument(reg, nil)
	fa := &flakyAdvisor{svc: svc, cache: make(map[string]any)}

	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	ptt, err := New(Config{
		Advisor: fa, Fabric: fab, DefaultStreams: 4, PolicyCallSeconds: 0.1,
		Breaker: BreakerConfig{FailureThreshold: 1, CooldownSeconds: 30, BacklogLimit: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	env.Go("workflow", func(p *simnet.Proc) {
		// Phase 1: the advise succeeds and the transfers run, but the
		// completion report's response is lost. The service has applied it;
		// the PTT cannot know, queues the report under its key, and the
		// breaker opens.
		fa.mu.Lock()
		fa.loseNextReport = true
		fa.mu.Unlock()
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 4), op(2, 4)}, 0); err != nil {
			t.Errorf("phase 1: %v", err)
		}

		// Phase 2: full outage. The workflow keeps moving data with local
		// defaults, and a cleanup is deferred rather than risked.
		fa.mu.Lock()
		fa.down = true
		fa.mu.Unlock()
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(3, 4)}, 0); err != nil {
			t.Errorf("phase 2: %v", err)
		}
		if err := ptt.ExecuteCleanups(p, "wf1", []string{"file://dst.example.org/scratch/f1"}); err != nil {
			t.Errorf("phase 2 cleanup: %v", err)
		}

		// Phase 3: the service heals; once the cooldown elapses the next
		// call probes it, succeeds and reconciles.
		fa.mu.Lock()
		fa.down = false
		fa.mu.Unlock()
		p.Sleep(40)
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(4, 4)}, 0); err != nil {
			t.Errorf("phase 3: %v", err)
		}
	})
	env.Run(0)

	st := ptt.Stats()
	if st.TransfersExecuted != 4 || st.TransfersFailed != 0 {
		t.Fatalf("executed %d / failed %d transfers, want 4 / 0", st.TransfersExecuted, st.TransfersFailed)
	}
	if st.BreakerOpens != 1 {
		t.Errorf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
	if st.DegradedTransfers != 1 {
		t.Errorf("DegradedTransfers = %d, want 1 (the outage-phase list)", st.DegradedTransfers)
	}
	if st.CleanupsDeferred != 1 {
		t.Errorf("CleanupsDeferred = %d, want 1", st.CleanupsDeferred)
	}
	if st.BacklogQueued != 1 || st.BacklogDrained != 1 || st.BacklogDropped != 0 {
		t.Errorf("backlog queued/drained/dropped = %d/%d/%d, want 1/1/0",
			st.BacklogQueued, st.BacklogDrained, st.BacklogDropped)
	}
	if st.Reconciles != 1 {
		t.Errorf("Reconciles = %d, want 1", st.Reconciles)
	}
	if st.LeaseRenewals != 1 {
		t.Errorf("LeaseRenewals = %d, want 1 (lease re-acquired at reconcile)", st.LeaseRenewals)
	}

	// Exactly-once application: the drain reused the original idempotency
	// key, so the advisor served it from cache instead of re-applying.
	fa.mu.Lock()
	replays := fa.replays
	fa.mu.Unlock()
	if replays != 1 {
		t.Errorf("idempotent replays = %d, want 1 (backlog drain reused the key)", replays)
	}

	// The service saw every advised transfer reported exactly once: nothing
	// in flight, no streams held, and no unmatched report IDs anywhere.
	d := svc.ExportState()
	if len(d.Transfers) != 0 {
		t.Errorf("%d transfers still in flight: %+v", len(d.Transfers), d.Transfers)
	}
	for _, l := range d.Ledgers {
		if l.Allocated != 0 {
			t.Errorf("%d streams still allocated on %s->%s", l.Allocated, l.Src, l.Dst)
		}
	}
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if text := scrape.String(); strings.Contains(text, "policy_report_unmatched_total{") {
		t.Errorf("unmatched report IDs counted — a report was double-applied:\n%s", text)
	}

	// The lease re-acquired at reconcile is live on the service.
	leases := svc.Leases()
	if len(leases.Leases) != 1 || leases.Leases[0].WorkflowID != "wf1" {
		t.Errorf("leases = %+v, want wf1 only", leases.Leases)
	}
}

// TestBreakerDisabledFailsClosed pins the pre-existing contract: without a
// breaker configured, a policy outage fails the staging task instead of
// falling back to defaults.
func TestBreakerDisabledFailsClosed(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fa := &flakyAdvisor{svc: svc, down: true, cache: make(map[string]any)}
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	ptt, err := New(Config{Advisor: fa, Fabric: fab, DefaultStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got error
	env.Go("task", func(p *simnet.Proc) {
		got = ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 1)}, 0)
	})
	env.Run(0)
	if !errors.Is(got, errUnreachable) {
		t.Fatalf("ExecuteList = %v, want the advisor's outage error", got)
	}
	if st := ptt.Stats(); st.DegradedTransfers != 0 || st.TransfersExecuted != 0 {
		t.Fatalf("stats = %+v, want no execution without policy", st)
	}
}

// TestBusyDoesNotTripBreaker pins the 429 contract: an admission shed is
// "healthy but busy", so the PTT degrades the shed call (or queues the
// shed report) exactly like an outage, but never counts it toward the
// breaker threshold. With FailureThreshold 1 a single miscounted shed
// would open the breaker, which the final phase would expose by needing
// a cooldown before the next policy call.
func TestBusyDoesNotTripBreaker(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.LeaseTTL = 120
	svc, err := policy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa := &flakyAdvisor{svc: svc, cache: make(map[string]any)}
	env := simnet.NewEnv(1)
	fab := NewSimFabric(env, quietConfigFor)
	ptt, err := New(Config{
		Advisor: fa, Fabric: fab, DefaultStreams: 4,
		PolicyCallSeconds: 0.1,
		Breaker:           BreakerConfig{FailureThreshold: 1, CooldownSeconds: 1000, BacklogLimit: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	env.Go("workflow", func(p *simnet.Proc) {
		// Phase 1: the advise call is shed. The batch degrades to local
		// defaults; the breaker must stay closed.
		fa.mu.Lock()
		fa.busy = true
		fa.mu.Unlock()
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 4)}, 0); err != nil {
			t.Errorf("phase 1: %v", err)
		}
		// A shed cleanup advise defers the deletions (fail safe).
		if err := ptt.ExecuteCleanups(p, "wf1", []string{"file://dst.example.org/scratch/f1"}); err != nil {
			t.Errorf("phase 1 cleanup: %v", err)
		}

		// Phase 2: advise admitted, but the completion report is shed. The
		// report queues for reconciliation; breaker still closed.
		fa.mu.Lock()
		fa.busy = false
		fa.busyNextReport = true
		fa.mu.Unlock()
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(2, 4)}, 0); err != nil {
			t.Errorf("phase 2: %v", err)
		}

		// Phase 3: immediately — no cooldown sleep — the next call must go
		// straight through (a tripped breaker would skip it) and drain the
		// queued report.
		if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(3, 4)}, 0); err != nil {
			t.Errorf("phase 3: %v", err)
		}
	})
	env.Run(0)

	st := ptt.Stats()
	if st.BreakerOpens != 0 {
		t.Errorf("BreakerOpens = %d, want 0 (429 must not trip the breaker)", st.BreakerOpens)
	}
	if st.PolicyBusy != 3 {
		t.Errorf("PolicyBusy = %d, want 3 (shed advise, shed cleanup advise, shed report)", st.PolicyBusy)
	}
	if st.DegradedTransfers != 1 {
		t.Errorf("DegradedTransfers = %d, want 1 (the shed advise batch)", st.DegradedTransfers)
	}
	if st.CleanupsDeferred != 1 {
		t.Errorf("CleanupsDeferred = %d, want 1", st.CleanupsDeferred)
	}
	if st.BacklogQueued != 1 || st.BacklogDrained != 1 {
		t.Errorf("backlog queued/drained = %d/%d, want 1/1", st.BacklogQueued, st.BacklogDrained)
	}
	if st.TransfersExecuted != 3 {
		t.Errorf("TransfersExecuted = %d, want 3", st.TransfersExecuted)
	}
}

// breakerCycle stages, reports and cleans up through adv, then walks the
// breaker through one outage: a failed report opens it and queues the
// report, an outage batch runs on defaults and its cleanup is deferred,
// and after the cooldown the next call reconciles and drains the backlog.
func breakerCycle(t *testing.T, adv Advisor, fa *flakyAdvisor) Stats {
	t.Helper()
	env := simnet.NewEnv(1)
	ptt, err := New(Config{
		Advisor: adv, Fabric: NewSimFabric(env, quietConfigFor), DefaultStreams: 4, PolicyCallSeconds: 0.1,
		Breaker: BreakerConfig{FailureThreshold: 1, CooldownSeconds: 30, BacklogLimit: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := func(f func()) {
		fa.mu.Lock()
		f()
		fa.mu.Unlock()
	}
	env.Go("workflow", func(p *simnet.Proc) {
		steps := []func() error{
			func() error { return ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 4), op(2, 4)}, 0) },
			func() error { return ptt.ExecuteCleanups(p, "wf1", []string{op(1, 4).DestURL}) },
			func() error {
				set(func() { fa.failNextReport = true })
				return ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(3, 4)}, 0)
			},
			func() error {
				set(func() { fa.down = true })
				return ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(4, 4)}, 0)
			},
			func() error { return ptt.ExecuteCleanups(p, "wf1", []string{op(2, 4).DestURL}) },
			func() error {
				set(func() { fa.down = false })
				p.Sleep(40)
				return ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(5, 4)}, 0)
			},
		}
		for i, step := range steps {
			if err := step(); err != nil {
				t.Errorf("step %d: %v", i+1, err)
			}
		}
	})
	env.Run(0)
	return ptt.Stats()
}

// TestBreakerOverPlainAdvisor drives the PTT over an advisor with only the
// four plain methods, the shape of a wrapper that times the plain calls.
// It reaches the service through advisorExecutor, without trace or key,
// and must stage, report, clean up, open its breaker, backlog and
// reconcile exactly as it does over a policy.Executor in front of the
// same service. The one difference: it cannot renew a lease.
func TestBreakerOverPlainAdvisor(t *testing.T) {
	cfg := policy.DefaultConfig()
	cfg.LeaseTTL = 120
	newFlaky := func() *flakyAdvisor {
		svc, err := policy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &flakyAdvisor{svc: svc, cache: make(map[string]any)}
	}
	direct, plain := newFlaky(), newFlaky()
	want := breakerCycle(t, direct, direct)
	got := breakerCycle(t, plainAdvisor{plain}, plain)

	if want.LeaseRenewals != 1 || got.LeaseRenewals != 0 {
		t.Errorf("LeaseRenewals = %d over the Executor, %d over the plain advisor; want 1, 0",
			want.LeaseRenewals, got.LeaseRenewals)
	}
	want.LeaseRenewals = 0
	if got != want {
		t.Errorf("stats over the plain advisor differ from the Executor's:\n  got  %+v\n  want %+v", got, want)
	}
	if got.TransfersExecuted != 5 || got.DegradedTransfers != 1 || got.CleanupsExecuted != 1 ||
		got.CleanupsDeferred != 1 || got.BreakerOpens != 1 || got.BacklogQueued != 1 ||
		got.BacklogDrained != 1 || got.Reconciles != 1 {
		t.Errorf("stats = %+v, want 5 executed (1 degraded), 1 cleanup executed and 1 deferred, "+
			"1 breaker open, 1 report queued and drained, 1 reconcile", got)
	}
	// Every report reached the service exactly once, and the adapter
	// carried no trace: only the Executor's decisions name one.
	for name, fa := range map[string]*flakyAdvisor{"executor": direct, "plain": plain} {
		d := fa.svc.ExportState()
		if len(d.Transfers) != 0 || len(d.Cleanups) != 0 {
			t.Errorf("%s: %d transfers, %d cleanups still in flight", name, len(d.Transfers), len(d.Cleanups))
		}
		for _, rec := range fa.svc.Decisions(0) {
			if traced := rec.TraceID != ""; traced != (fa == direct) {
				t.Errorf("%s: %s decision has trace %q", name, rec.Op, rec.TraceID)
			}
		}
	}
	if direct.replays != 0 {
		t.Errorf("%d replays over the Executor; the failed report never reached the service", direct.replays)
	}
}

// TestBreakerOffPlainAdvisorMatchesService runs a fault-free list and
// cleanup over *policy.Service and over the same service behind only its
// plain methods: the counters must agree, lease renewals included (none).
func TestBreakerOffPlainAdvisorMatchesService(t *testing.T) {
	run := func(wrap func(*policy.Service) Advisor) Stats {
		svc := newPolicySvc(t, 50, 4)
		env := simnet.NewEnv(1)
		ptt, err := New(Config{Advisor: wrap(svc), Fabric: NewSimFabric(env, quietConfigFor), DefaultStreams: 4, PolicyCallSeconds: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		env.Go("workflow", func(p *simnet.Proc) {
			if err := ptt.ExecuteList(p, "wf1", "c1", []workflow.TransferOp{op(1, 4), op(2, 4), op(1, 4)}, 0); err != nil {
				t.Error(err)
			}
			if err := ptt.ExecuteCleanups(p, "wf1", []string{op(1, 4).DestURL, op(1, 4).DestURL}); err != nil {
				t.Error(err)
			}
		})
		env.Run(0)
		return ptt.Stats()
	}
	want := run(func(s *policy.Service) Advisor { return s })
	got := run(func(s *policy.Service) Advisor { return plainAdvisor{s} })
	if got != want {
		t.Errorf("stats over the plain advisor = %+v, over the service = %+v", got, want)
	}
	if want.PolicyCalls != 4 || want.TransfersSuppressed != 1 || want.CleanupsSuppressed != 1 {
		t.Errorf("stats = %+v, want 4 policy calls, 1 suppressed transfer and 1 suppressed cleanup", want)
	}
}
