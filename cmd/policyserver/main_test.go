package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

// TestDrainAndShutdownFinishesAcceptedWork pins the graceful-stop
// contract: once the drain begins, new submissions shed immediately with
// ErrDraining (503 upstream), while work already accepted into the queue
// runs to completion before drainAndShutdown returns.
func TestDrainAndShutdownFinishesAcceptedWork(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	var executed atomic.Int32
	run := func(batch []any) {
		entered <- struct{}{}
		<-gate
		executed.Add(int32(len(batch)))
	}
	ctl := admit.New(admit.Config{MaxQueue: 16, MaxWait: 5 * time.Second, BatchMax: 4}, run)

	subErr := make(chan error, 1)
	go func() { subErr <- ctl.SubmitMutation(context.Background(), struct{}{}, nil) }()
	<-entered // the dispatcher has claimed the task; the runner is now blocked on gate

	// The HTTP server was never started, so Shutdown returns immediately
	// and the drain of the admission controller dominates.
	srv := &http.Server{}
	shutdownDone := make(chan struct{})
	go func() {
		drainAndShutdown(srv, ctl, 5*time.Second)
		close(shutdownDone)
	}()

	// Wait for the drain to take effect. Probe submissions use an
	// already-canceled context so a probe that races ahead of the drain is
	// abandoned without executing (ErrCanceled) instead of blocking.
	probeCtx, cancel := context.WithCancel(context.Background())
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := ctl.SubmitMutation(probeCtx, struct{}{}, nil)
		if errors.Is(err, admit.ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("new work still admitted during drain: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case <-shutdownDone:
		t.Fatal("drainAndShutdown returned while accepted work was still running")
	default:
	}

	close(gate) // let the in-flight batch finish
	select {
	case err := <-subErr:
		if err != nil {
			t.Fatalf("accepted mutation failed during drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("accepted mutation did not complete")
	}
	select {
	case <-shutdownDone:
	case <-time.After(2 * time.Second):
		t.Fatal("drainAndShutdown did not return after the queue drained")
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("executed %d mutations, want 1 (the accepted one, no probes)", got)
	}
}

// slowCommit is an admitted payload whose commit outlasts the runner
// call that applied it, as a pipelined commit does.
type slowCommit struct{ committed chan struct{} }

func (p slowCommit) Wait() { <-p.committed }

// TestDrainAndShutdownWaitsForCommits: drainAndShutdown does not return
// while an accepted mutation's commit is still in flight, with no HTTP
// handler anywhere to hold it up, so the store main closes next has it.
func TestDrainAndShutdownWaitsForCommits(t *testing.T) {
	ran := make(chan struct{}, 1)
	ctl := admit.New(admit.Config{MaxQueue: 4, MaxWait: 5 * time.Second, BatchMax: 4},
		func([]any) { ran <- struct{}{} })
	p := slowCommit{committed: make(chan struct{})}
	subErr := make(chan error, 1)
	go func() { subErr <- ctl.SubmitMutation(context.Background(), p, nil) }()
	<-ran

	done := make(chan struct{})
	go func() {
		drainAndShutdown(&http.Server{}, ctl, 5*time.Second)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("drainAndShutdown returned before the accepted mutation committed")
	case <-time.After(30 * time.Millisecond):
	}
	close(p.committed)
	if err := <-subErr; err != nil {
		t.Fatalf("accepted mutation: %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("drainAndShutdown did not return after the commit")
	}
}

// TestDrainAndShutdownHardDeadline pins the bound: a drain stuck behind a
// runner that never finishes is cut off at the deadline instead of
// hanging shutdown forever.
func TestDrainAndShutdownHardDeadline(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	ctl := admit.New(admit.Config{MaxQueue: 4, MaxWait: time.Minute, BatchMax: 4}, func(batch []any) {
		entered <- struct{}{}
		<-gate
	})
	go ctl.SubmitMutation(context.Background(), struct{}{}, nil)
	<-entered

	done := make(chan struct{})
	go func() {
		drainAndShutdown(&http.Server{}, ctl, 50*time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drainAndShutdown exceeded its hard deadline")
	}
}

// TestServerShutdownEndToEnd boots the real HTTP stack with admission
// enabled, verifies a mutation round-trips, then drains: afterwards the
// listener is closed and the controller rejects new work.
func TestServerShutdownEndToEnd(t *testing.T) {
	svc, err := policy.New(policy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	api := policyhttp.NewServer(svc, nil)
	ctl := policyhttp.NewAdmissionController(svc, admit.Config{MaxQueue: 16})
	api.SetAdmission(ctl)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: api}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	cli := policyhttp.NewClient("http://" + ln.Addr().String())
	adv, err := cli.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r1", WorkflowID: "wf1",
		SourceURL: "gsiftp://src.example.org/data/f1",
		DestURL:   "gsiftp://dst.example.org/scratch/f1",
		SizeBytes: 1 << 20,
	}})
	if err != nil {
		t.Fatalf("advise through admission queue: %v", err)
	}
	if len(adv.Transfers) != 1 {
		t.Fatalf("advice has %d transfers, want 1", len(adv.Transfers))
	}

	drainAndShutdown(srv, ctl, 5*time.Second)
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if err := ctl.SubmitMutation(context.Background(), struct{}{}, nil); !errors.Is(err, admit.ErrDraining) {
		t.Fatalf("post-shutdown submission = %v, want ErrDraining", err)
	}
	if _, err := cli.AdviseTransfers([]policy.TransferSpec{{
		RequestID: "r2", WorkflowID: "wf1",
		SourceURL: "gsiftp://src.example.org/data/f2",
		DestURL:   "gsiftp://dst.example.org/scratch/f2",
	}}); err == nil {
		t.Fatal("request after shutdown succeeded, want connection failure")
	}
}
