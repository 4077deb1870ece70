package policyhttp

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// scriptedTransport answers each request from a fixed script of status
// codes (0 means a transport error) and records what it saw. It lets the
// retry tests run without sockets or timers.
type scriptedTransport struct {
	script     []int    // per-attempt status; 0 = transport error
	retryAfter []string // per-attempt Retry-After header ("" = none)
	calls      int
	keys       []string // Idempotency-Key header per attempt
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := s.calls
	s.calls++
	s.keys = append(s.keys, req.Header.Get(IdempotencyKeyHeader))
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	code := http.StatusOK
	if i < len(s.script) {
		code = s.script[i]
	}
	if code == 0 {
		return nil, errors.New("scripted transport error")
	}
	body := `{}`
	if code >= 400 {
		body = `{"message":"scripted failure"}`
	}
	header := http.Header{"Content-Type": []string{"application/json"}}
	if i < len(s.retryAfter) && s.retryAfter[i] != "" {
		header.Set("Retry-After", s.retryAfter[i])
	}
	return &http.Response{
		StatusCode: code,
		Header:     header,
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}, nil
}

// retryClient builds a client over a scripted transport that never sleeps
// real time, capturing each backoff instead.
func retryClient(script []int, opts ...ClientOption) (*Client, *scriptedTransport, *[]time.Duration) {
	st := &scriptedTransport{script: script}
	sleeps := &[]time.Duration{}
	base := []ClientOption{
		WithTransport(st),
		WithBackoffSleep(func(d time.Duration) { *sleeps = append(*sleeps, d) }),
		WithJitterSeed(1),
	}
	c := NewClient("http://scripted", append(base, opts...)...)
	return c, st, sleeps
}

// TestBackoffGrowthAndCap pins the backoff schedule: exponential doubling
// from BaseBackoff, clamped at MaxBackoff, with zero jitter so the values
// are exact.
func TestBackoffGrowthAndCap(t *testing.T) {
	c, _, _ := retryClient(nil, WithRetry(RetryPolicy{
		MaxAttempts: 8, BaseBackoff: 10 * time.Millisecond,
		MaxBackoff: 80 * time.Millisecond, Jitter: 0,
	}))
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := c.retryDelay(i+1, 0); got != w*time.Millisecond {
			t.Errorf("retryDelay(%d, 0) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Without a cap the doubling continues unbounded.
	c2, _, _ := retryClient(nil, WithRetry(RetryPolicy{
		MaxAttempts: 8, BaseBackoff: 10 * time.Millisecond, Jitter: 0,
	}))
	if got := c2.retryDelay(5, 0); got != 160*time.Millisecond {
		t.Errorf("uncapped retryDelay(5, 0) = %v, want 160ms", got)
	}
}

// TestBackoffJitterBounds checks that jittered backoffs stay within the
// +-Jitter band around the nominal value and are reproducible from the
// seed.
func TestBackoffJitterBounds(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Millisecond,
		MaxBackoff: time.Second, Jitter: 0.2}
	c, _, _ := retryClient(nil, WithRetry(pol), WithJitterSeed(42))
	var first []time.Duration
	for i := 1; i <= 4; i++ {
		d := c.retryDelay(i, 0)
		nominal := 100 * time.Millisecond << (i - 1)
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if d < lo || d > hi {
			t.Errorf("retryDelay(%d, 0) = %v outside [%v, %v]", i, d, lo, hi)
		}
		first = append(first, d)
	}
	// Same seed, same sequence.
	c2, _, _ := retryClient(nil, WithRetry(pol), WithJitterSeed(42))
	for i := 1; i <= 4; i++ {
		if d := c2.retryDelay(i, 0); d != first[i-1] {
			t.Errorf("seeded jitter not reproducible: retryDelay(%d, 0) = %v, first run %v", i, d, first[i-1])
		}
	}
}

// TestRetryOnGatewayFailures checks that 502/503/504 and transport errors
// are retried until success, sleeping the backoff between attempts, and
// that every attempt carries the same idempotency key.
func TestRetryOnGatewayFailures(t *testing.T) {
	for _, code := range []int{0, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout} {
		c, st, sleeps := retryClient([]int{code, code, http.StatusOK}, WithRetry(RetryPolicy{
			MaxAttempts: 3, BaseBackoff: time.Millisecond, Jitter: 0,
		}))
		if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3}); err != nil {
			t.Errorf("script %d: call failed after retries: %v", code, err)
		}
		if st.calls != 3 {
			t.Errorf("script %d: %d attempts, want 3", code, st.calls)
		}
		if len(*sleeps) != 2 {
			t.Errorf("script %d: slept %d times, want 2", code, len(*sleeps))
		}
		if st.keys[0] == "" || st.keys[0] != st.keys[1] || st.keys[1] != st.keys[2] {
			t.Errorf("script %d: idempotency keys varied across attempts: %v", code, st.keys)
		}
	}
}

// TestNoRetryOnDeterministicStatus checks that 4xx rejections and plain
// 500s are returned immediately: retrying them cannot change the outcome.
func TestNoRetryOnDeterministicStatus(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusInternalServerError} {
		c, st, sleeps := retryClient([]int{code, http.StatusOK}, WithRetry(RetryPolicy{
			MaxAttempts: 3, BaseBackoff: time.Millisecond, Jitter: 0,
		}))
		_, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3})
		if err == nil {
			t.Errorf("status %d: call unexpectedly succeeded", code)
			continue
		}
		var se *ServerError
		if !errors.As(err, &se) || se.StatusCode != code {
			t.Errorf("status %d: error = %v, want ServerError with that status", code, err)
		}
		if st.calls != 1 {
			t.Errorf("status %d: %d attempts, want 1 (no retry)", code, st.calls)
		}
		if len(*sleeps) != 0 {
			t.Errorf("status %d: slept %v, want no backoff", code, *sleeps)
		}
		if IsRejection(err) != (code < 500) {
			t.Errorf("status %d: IsRejection = %v", code, IsRejection(err))
		}
	}
}

// TestRetryExhaustion checks that a persistent outage surfaces the last
// error after MaxAttempts tries and bumps the exhausted counter.
func TestRetryExhaustion(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewClientMetrics(reg)
	c, st, _ := retryClient([]int{503, 503, 503, 503}, WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, Jitter: 0,
	}), WithMetrics(m))
	_, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3})
	var se *ServerError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("error = %v, want the final 503", err)
	}
	if st.calls != 3 {
		t.Fatalf("%d attempts, want 3", st.calls)
	}
	if got := m.Exhausted.With("/v1/thresholds").Value(); got != 1 {
		t.Errorf("exhausted counter = %v, want 1", got)
	}
	if got := m.Retries.With("/v1/thresholds").Value(); got != 2 {
		t.Errorf("retries counter = %v, want 2", got)
	}
}

// TestRetryRespectsCancellation checks that cancelling the call's context
// stops the retry loop between attempts instead of burning the remaining
// budget.
func TestRetryRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &scriptedTransport{script: []int{503, 503, 503}}
	c := NewClient("http://scripted",
		WithTransport(st),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Jitter: 0}),
		// Cancel during the first backoff: the loop must notice before
		// launching attempt two.
		WithBackoffSleep(func(time.Duration) { cancel() }),
	)
	_, err := c.Execute(ctx, policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if st.calls != 1 {
		t.Fatalf("%d attempts after cancellation, want 1", st.calls)
	}
}

// TestMutationKeysAreUnique checks that separate logical calls never share
// an idempotency key (sharing one would silently drop the second call),
// and that GETs carry none.
func TestMutationKeysAreUnique(t *testing.T) {
	c, st, _ := retryClient(nil)
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: []string{"t-00000001"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dump(); err != nil {
		t.Fatal(err)
	}
	if len(st.keys) != 3 {
		t.Fatalf("%d attempts, want 3", len(st.keys))
	}
	if st.keys[0] == "" || st.keys[1] == "" || st.keys[0] == st.keys[1] {
		t.Errorf("mutation keys not unique: %q, %q", st.keys[0], st.keys[1])
	}
	if st.keys[2] != "" {
		t.Errorf("GET carried idempotency key %q", st.keys[2])
	}
}
