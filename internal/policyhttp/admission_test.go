package policyhttp

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// newAdmittedServer builds a test server whose mutations flow through a
// real admission controller; the controller is returned so tests can arm
// deterministic sheds or occupy its queues.
func newAdmittedServer(t *testing.T, cfg admit.Config) (*httptest.Server, *policy.Service, *admit.Controller) {
	t.Helper()
	pcfg := policy.DefaultConfig()
	pcfg.DefaultThreshold = 50
	pcfg.DefaultStreams = 4
	svc, err := policy.New(pcfg)
	if err != nil {
		t.Fatalf("policy.New: %v", err)
	}
	srv := NewServer(svc, nil)
	ctl := NewAdmissionController(svc, cfg)
	srv.SetAdmission(ctl)
	t.Cleanup(ctl.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, svc, ctl
}

// noSleep disables real backoff sleeps in end-to-end retry tests.
func noSleep() ClientOption { return WithBackoffSleep(func(time.Duration) {}) }

// TestShedReturns429BeforeAnySideEffect: an armed shed is rejected with
// 429 + Retry-After, and Policy Memory shows the mutation never ran.
func TestShedReturns429BeforeAnySideEffect(t *testing.T) {
	ts, svc, ctl := newAdmittedServer(t, admit.Config{MaxQueue: 8})
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))

	ctl.FailNext(1)
	_, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")})
	if !IsBusy(err) {
		t.Fatalf("err = %v, want busy (429)", err)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.RetryAfter < time.Second {
		t.Fatalf("err = %v, want Retry-After >= 1s attached", err)
	}
	// 429 is a 4xx on the wire, so IsRejection also matches — callers that
	// care about the difference must check IsBusy first (as the transfer
	// tool does). Pin that ordering contract.
	if !IsRejection(err) {
		t.Fatal("429 stopped matching IsRejection; revisit callers that rely on IsBusy-first ordering")
	}
	if st := svc.ExportState(); len(st.Transfers) != 0 {
		t.Fatalf("shed request left %d transfers resident", len(st.Transfers))
	}
	// With nothing armed the same call is admitted.
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")})
	if err != nil || len(adv.Transfers) != 1 {
		t.Fatalf("post-shed call: adv=%v err=%v", adv, err)
	}
}

// TestShedRetryIsTransparent: with the default retry budget the client
// rides through a shed on its own — callers never see the 429.
func TestShedRetryIsTransparent(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewClientMetrics(reg)
	ts, _, ctl := newAdmittedServer(t, admit.Config{MaxQueue: 8})
	c := NewClient(ts.URL, noSleep(), WithMetrics(m))

	ctl.FailNext(1)
	adv, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")})
	if err != nil || len(adv.Transfers) != 1 {
		t.Fatalf("adv=%v err=%v", adv, err)
	}
	if got := m.Faults.With("/v1/transfers", "http_429").Value(); got != 1 {
		t.Errorf("http_429 fault counter = %v, want 1", got)
	}
	if got := m.Retries.With("/v1/transfers").Value(); got != 1 {
		t.Errorf("retry counter = %v, want 1", got)
	}
}

// TestShedDoesNotPolluteIdempotencyCache is the core at-most-once
// interaction: a 429 under an Idempotency-Key must not be cached, or the
// client's post-backoff retry under the same key would replay the
// rejection forever instead of executing.
func TestShedDoesNotPolluteIdempotencyCache(t *testing.T) {
	ts, svc, ctl := newAdmittedServer(t, admit.Config{MaxQueue: 8})
	body := `{"transfers":[{"requestId":"r1","workflowId":"wf","sourceUrl":"gsiftp://s.example.org/f","destUrl":"file://d.example.org/f"}]}`
	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/transfers", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdempotencyKeyHeader, "shed-key-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	ctl.FailNext(1)
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("armed request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After header")
	}

	// Same key, nothing armed: the request must EXECUTE, not replay the
	// cached 429.
	resp = post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry under same key status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get(IdempotencyReplayedHeader) != "" {
		t.Error("retry under same key was served as an idempotent replay")
	}
	if st := svc.ExportState(); len(st.Transfers) != 1 {
		t.Fatalf("resident transfers = %d, want exactly 1", len(st.Transfers))
	}

	// And a third request under the key now replays the recorded success:
	// the cache only refused the not-applied response.
	resp = post()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(IdempotencyReplayedHeader) != "true" {
		t.Fatalf("third request: status=%d replayed=%q, want cached replay",
			resp.StatusCode, resp.Header.Get(IdempotencyReplayedHeader))
	}
	if st := svc.ExportState(); len(st.Transfers) != 1 {
		t.Fatalf("replay re-applied the mutation: %d transfers", len(st.Transfers))
	}
}

// TestWriteShedStatusMapping pins the admission-error -> wire contract.
func TestWriteShedStatusMapping(t *testing.T) {
	svc, _ := policy.New(policy.DefaultConfig())
	s := NewServer(svc, nil)
	ctl := NewAdmissionController(svc, admit.Config{MaxQueue: 8})
	defer ctl.Close()
	s.SetAdmission(ctl)

	cases := []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{admit.ErrQueueFull, http.StatusTooManyRequests, true},
		{admit.ErrWaitExceeded, http.StatusTooManyRequests, true},
		{admit.ErrDraining, http.StatusServiceUnavailable, true},
		{admit.ErrCanceled, http.StatusRequestTimeout, false},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		s.writeFailure(w, formatJSON, tc.err)
		if w.Code != tc.status {
			t.Errorf("%v -> status %d, want %d", tc.err, w.Code, tc.status)
		}
		if got := w.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("%v -> Retry-After present=%v, want %v", tc.err, got, tc.retryAfter)
		}
		if !strings.Contains(w.Body.String(), "admit") {
			t.Errorf("%v -> body %q does not carry the admission error", tc.err, w.Body.String())
		}
	}
}

// TestReadShedding: read-only endpoints sit behind the read-concurrency
// gate and shed with 429 when the slots stay occupied past the wait
// budget — but never touch the mutation queue.
func TestReadShedding(t *testing.T) {
	ts, _, ctl := newAdmittedServer(t, admit.Config{
		MaxQueue: 8, MaxWait: 20 * time.Millisecond, ReadConcurrency: 1,
	})
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))

	release, err := ctl.AcquireRead(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.State(); !IsBusy(err) {
		t.Fatalf("read with occupied slot: err = %v, want busy", err)
	}
	// Mutations are unaffected: the classes have independent queues.
	if _, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")}); err != nil {
		t.Fatalf("mutation while reads occupied: %v", err)
	}
	release()
	if _, err := c.State(); err != nil {
		t.Fatalf("read after release: %v", err)
	}
}

// TestDrainingReturns503: once the controller drains, new mutations get
// 503 + Retry-After — the load balancer signal to go elsewhere.
func TestDrainingReturns503(t *testing.T) {
	ts, _, ctl := newAdmittedServer(t, admit.Config{MaxQueue: 8})
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	if err := ctl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")})
	var se *ServerError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("draining 503 carried no Retry-After: %v", err)
	}
}

// TestAbandonedRequestCountsClientGone: a client that disconnects while
// queued is abandoned at dequeue — the mutation never executes and the
// shed counter records reason="client_gone".
func TestAbandonedRequestCountsClientGone(t *testing.T) {
	pcfg := policy.DefaultConfig()
	svc, err := policy.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServerWith(svc, nil, reg, nil)

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	run := ServiceRunner(svc)
	ctl := admit.New(admit.Config{MaxQueue: 8, MaxWait: 30 * time.Second, BatchMax: 4},
		func(batch []any) {
			entered <- struct{}{}
			<-gate
			run(batch)
		})
	ctl.Instrument(reg)
	srv.SetAdmission(ctl)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Registered after ts.Close so it runs first: a parked handler must be
	// released before the test server waits for connections to finish.
	defer func() {
		close(gate)
		ctl.Close()
	}()

	// First request occupies the dispatcher.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
		c.AdviseTransfers([]policy.TransferSpec{testSpec(1, "wf")})
	}()
	<-entered

	// Second request queues behind it, then its client walks away.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer wg.Done()
		body := strings.NewReader(`{"transfers":[{"requestId":"r2","workflowId":"wf","sourceUrl":"gsiftp://s.example.org/f2","destUrl":"file://d.example.org/f2"}]}`)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/transfers", body)
		req.Header.Set("Content-Type", "application/json")
		http.DefaultClient.Do(req) // fails with context.Canceled; that IS the scenario
	}()
	for ctl.Depth(admit.ClassMutate) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()

	// The waiter records the client_gone shed the moment it abandons its
	// queued task; wait for that BEFORE releasing the dispatcher, or the
	// dispatcher could claim the still-pending task first and execute it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), `policy_admit_shed_total{class="mutate",reason="client_gone"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client_gone shed not recorded; scrape:\n%s", buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Release the dispatcher; the abandoned task is discarded at dequeue
	// without a runner call, so only the first batch needs the gate.
	gate <- struct{}{}
	wg.Wait()
	// The abandoned mutation never executed.
	if st := svc.ExportState(); len(st.Transfers) != 1 {
		t.Fatalf("resident transfers = %d, want only the first request's", len(st.Transfers))
	}
}

// admittedRoundTripAllocs is the measured allocation count of one admitted
// advise+report round trip over loopback, client and server together; the
// test allows 5 % above it.
const admittedRoundTripAllocs = 335

// TestAdmittedRoundTripAllocs is the allocation ceiling of the request
// path: one advise of two fresh files and its completion report, through
// the client, HTTP, the idempotency cache, admission, the engine and back,
// each call carrying an idempotency key and a trace.
func TestAdmittedRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector do not measure the program")
	}
	ts, _, _ := newAdmittedServer(t, admit.Config{MaxQueue: 8, MaxWait: time.Minute})
	c := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	specs := make([]policy.TransferSpec, 2)
	i := 0
	roundTrip := func() {
		for j := range specs {
			specs[j] = testSpec(i, "wf")
			i++
		}
		adv, err := c.AdviseTransfers(specs)
		if err != nil || len(adv.Transfers) != len(specs) {
			t.Fatalf("advise = %+v, %v", adv, err)
		}
		ack, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{adv.Transfers[0].ID, adv.Transfers[1].ID}})
		if err != nil || ack.Matched != len(specs) {
			t.Fatalf("report = %+v, %v", ack, err)
		}
	}
	for k := 0; k < 20; k++ {
		roundTrip()
	}
	got := testing.AllocsPerRun(100, roundTrip)
	t.Logf("admitted advise+report round trip: %.0f allocs", got)
	if limit := admittedRoundTripAllocs * 1.05; got > limit {
		t.Fatalf("admitted round trip allocates %.0f times, ceiling %.0f (measured %d + 5 %%)", got, limit, admittedRoundTripAllocs)
	}
}
