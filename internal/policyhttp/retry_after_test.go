package policyhttp

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"policyflow/internal/policy"
)

// TestRetryDelayPrefersHint pins the precedence rule: a server Retry-After
// hint replaces the exponential backoff for that retry; without a hint the
// normal schedule applies.
func TestRetryDelayPrefersHint(t *testing.T) {
	c, _, _ := retryClient(nil, WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond,
		MaxBackoff: 10 * time.Second, Jitter: 0,
	}))
	if got := c.retryDelay(1, 5*time.Second); got != 5*time.Second {
		t.Errorf("retryDelay with hint = %v, want the 5s hint", got)
	}
	if got := c.retryDelay(1, 0); got != 10*time.Millisecond {
		t.Errorf("retryDelay without hint = %v, want BaseBackoff", got)
	}
	// The hint applies per-retry: a later retry with no hint falls back to
	// the (doubled) schedule, not the previous hint.
	if got := c.retryDelay(2, 0); got != 20*time.Millisecond {
		t.Errorf("retryDelay(2) without hint = %v, want 20ms", got)
	}
}

// TestRetryDelayCapsHint: a misbehaving server cannot park the client —
// the hint is clamped to MaxBackoff.
func TestRetryDelayCapsHint(t *testing.T) {
	c, _, _ := retryClient(nil, WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond,
		MaxBackoff: 2 * time.Second, Jitter: 0,
	}))
	if got := c.retryDelay(1, 30*time.Second); got != 2*time.Second {
		t.Errorf("retryDelay with oversized hint = %v, want MaxBackoff cap 2s", got)
	}
}

// TestRetryDelayKeepsJitter: honoring the hint must not remove jitter, or
// every client shed in the same burst would retry in lockstep.
func TestRetryDelayKeepsJitter(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond,
		MaxBackoff: 10 * time.Second, Jitter: 0.2}
	c, _, _ := retryClient(nil, WithRetry(pol), WithJitterSeed(7))
	hint := time.Second
	lo, hi := 800*time.Millisecond, 1200*time.Millisecond
	sawOffNominal := false
	for i := 0; i < 8; i++ {
		d := c.retryDelay(1, hint)
		if d < lo || d > hi {
			t.Fatalf("jittered hint delay %v outside [%v, %v]", d, lo, hi)
		}
		if d != hint {
			sawOffNominal = true
		}
	}
	if !sawOffNominal {
		t.Error("eight jittered draws all landed exactly on the hint")
	}
}

// TestRetryAfterHonoredOn429 runs the full retry loop: the first attempt
// is shed with 429 + Retry-After, the client sleeps exactly the hint
// (jitter disabled) and retries under the same idempotency key.
func TestRetryAfterHonoredOn429(t *testing.T) {
	c, st, sleeps := retryClient(
		[]int{http.StatusTooManyRequests, http.StatusOK},
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond,
			MaxBackoff: 10 * time.Second, Jitter: 0}),
	)
	st.retryAfter = []string{"3"}
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3}); err != nil {
		t.Fatalf("call failed despite retry budget: %v", err)
	}
	if st.calls != 2 {
		t.Fatalf("%d attempts, want 2", st.calls)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 3*time.Second {
		t.Fatalf("sleeps = %v, want exactly the 3s Retry-After hint", *sleeps)
	}
	if st.keys[0] == "" || st.keys[0] != st.keys[1] {
		t.Fatalf("idempotency keys varied across the shed retry: %v", st.keys)
	}
}

// TestRetryAfterHonoredOn503: draining servers hint too, same contract.
func TestRetryAfterHonoredOn503(t *testing.T) {
	c, st, sleeps := retryClient(
		[]int{http.StatusServiceUnavailable, http.StatusOK},
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond,
			MaxBackoff: 10 * time.Second, Jitter: 0}),
	)
	st.retryAfter = []string{"2"}
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3}); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 2*time.Second {
		t.Fatalf("sleeps = %v, want the 2s hint", *sleeps)
	}
}

// TestRetryAfterCapInLoop: an absurd hint in a live retry loop is clamped
// to MaxBackoff before sleeping.
func TestRetryAfterCapInLoop(t *testing.T) {
	c, st, sleeps := retryClient(
		[]int{http.StatusTooManyRequests, http.StatusOK},
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond,
			MaxBackoff: 50 * time.Millisecond, Jitter: 0}),
	)
	st.retryAfter = []string{"9999"}
	if _, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3}); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 50*time.Millisecond {
		t.Fatalf("sleeps = %v, want the 50ms MaxBackoff cap", *sleeps)
	}
}

// TestBusySurfacesAfterExhaustion: a persistently shedding server yields a
// ServerError that IsBusy (not IsRejection-style terminal) with the parsed
// Retry-After attached, so callers like the transfer tool can treat it as
// "healthy but overloaded".
func TestBusySurfacesAfterExhaustion(t *testing.T) {
	c, st, _ := retryClient(
		[]int{http.StatusTooManyRequests, http.StatusTooManyRequests, http.StatusTooManyRequests},
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond,
			MaxBackoff: time.Second, Jitter: 0}),
	)
	st.retryAfter = []string{"1", "1", "1"}
	_, err := c.Execute(context.Background(), policy.OpSetThreshold, policy.ThresholdOp{SourceHost: "a", DestHost: "b", Max: 3})
	if err == nil {
		t.Fatal("call succeeded against a permanently shedding server")
	}
	if st.calls != 3 {
		t.Fatalf("%d attempts, want the full budget of 3", st.calls)
	}
	if !IsBusy(err) {
		t.Fatalf("IsBusy(%v) = false, want true for a final 429", err)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.RetryAfter != time.Second {
		t.Fatalf("error = %v, want ServerError carrying the 1s Retry-After", err)
	}
	if se.HTTPStatus() != http.StatusTooManyRequests {
		t.Fatalf("HTTPStatus = %d", se.HTTPStatus())
	}
}
