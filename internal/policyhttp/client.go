package policyhttp

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// IdempotencyKeyHeader carries the client-generated key that makes a
// mutating request safely retryable: the server applies the mutation at
// most once per key and replays the recorded response to duplicates.
const IdempotencyKeyHeader = "Idempotency-Key"

// IdempotencyReplayedHeader marks a response served from the server's
// idempotency cache instead of a fresh application.
const IdempotencyReplayedHeader = "Idempotency-Replayed"

// RetryPolicy controls the client's retry loop. Attempts beyond the first
// are made only for transport errors (connection failures, timeouts,
// dropped responses), retryable 5xx statuses (502, 503, 504), and 429
// admission sheds — which are guaranteed side-effect free and carry a
// Retry-After hint the backoff honors. Every retried mutation carries the
// same idempotency key, so a response lost after the server applied the
// mutation is recovered without applying it twice.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it (exponential backoff), capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth; 0 means no cap.
	MaxBackoff time.Duration
	// Jitter is the fractional randomization applied to each backoff
	// (0.2 = +-20%), decorrelating retry storms across clients.
	Jitter float64
}

// DefaultRetryPolicy is the retry configuration clients start with: three
// attempts with 50ms base backoff, 1s cap and 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond,
		MaxBackoff: time.Second, Jitter: 0.2}
}

// Client is the Go client for the policy service's RESTful interface; the
// modified Pegasus Transfer Tool uses it to obtain advice before executing
// transfers. The zero value is not usable; call NewClient.
type Client struct {
	base string
	http *http.Client
	// useXML selects the XML wire format instead of JSON.
	useXML bool
	retry  RetryPolicy
	// sleep waits between retry attempts; injectable so tests and the
	// fault-injection harness never sleep real time.
	sleep func(time.Duration)
	// ctx is the base context every request derives from.
	ctx     context.Context
	metrics *obs.ClientMetrics

	// epoch is the highest fencing epoch observed in any response's
	// X-Policy-Epoch header (monotonic; see failover.go). Mutations echo
	// it so a deposed primary learns it has been passed and self-fences.
	epoch atomic.Uint64

	mu         sync.Mutex
	rng        *rand.Rand // backoff jitter
	keyPrefix  string
	keyCounter uint64
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithXML makes the client speak XML on the wire (the service supports
// both; the paper's interface offers "XML or JSON data structures").
func WithXML() ClientOption {
	return func(c *Client) { c.useXML = true }
}

// WithTimeout replaces the default 30s per-attempt HTTP timeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.http.Timeout = d }
}

// WithTransport substitutes the HTTP transport — the fault-injection
// harness routes requests in-process and injects faults here.
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.http.Transport = rt }
}

// WithRetry replaces the default retry policy. A policy with
// MaxAttempts <= 1 disables retries.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithBackoffSleep substitutes the function that waits between retries
// (tests pass a fake clock so backoff never sleeps real time).
func WithBackoffSleep(sleep func(time.Duration)) ClientOption {
	return func(c *Client) { c.sleep = sleep }
}

// WithBaseContext makes every request derive from ctx, so cancelling it
// aborts in-flight calls and pending retries.
func WithBaseContext(ctx context.Context) ClientOption {
	return func(c *Client) { c.ctx = ctx }
}

// WithMetrics attaches retry/fault counters (see obs.NewClientMetrics).
func WithMetrics(m *obs.ClientMetrics) ClientOption {
	return func(c *Client) { c.metrics = m }
}

// WithJitterSeed seeds the backoff jitter generator, making retry timing
// reproducible in tests.
func WithJitterSeed(seed int64) ClientOption {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// NewClient returns a client for the policy service at baseURL (e.g.
// "http://localhost:8765"). Retries with backoff and idempotency keys are
// on by default (DefaultRetryPolicy); pass WithRetry to tune or disable.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		http:  &http.Client{Timeout: 30 * time.Second},
		retry: DefaultRetryPolicy(),
		sleep: time.Sleep,
		ctx:   context.Background(),
	}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		c.keyPrefix = hex.EncodeToString(b[:])
	} else {
		c.keyPrefix = fmt.Sprintf("%x", time.Now().UnixNano())
	}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(int64(time.Now().UnixNano())))
	}
	return c
}

func (c *Client) contentType() string {
	if c.useXML {
		return "application/xml"
	}
	return "application/json"
}

func (c *Client) encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if c.useXML {
		if err := xml.NewEncoder(&buf).Encode(v); err != nil {
			return nil, err
		}
	} else {
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// newIdempotencyKey mints a key unique to this client instance and call.
func (c *Client) newIdempotencyKey() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keyCounter++
	return fmt.Sprintf("%s-%d", c.keyPrefix, c.keyCounter)
}

// backoff computes the jittered exponential backoff before retry number
// retry (1-based).
func (c *Client) backoff(retry int) time.Duration {
	d := c.retry.BaseBackoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if c.retry.MaxBackoff > 0 && d >= c.retry.MaxBackoff {
			d = c.retry.MaxBackoff
			break
		}
	}
	if c.retry.MaxBackoff > 0 && d > c.retry.MaxBackoff {
		d = c.retry.MaxBackoff
	}
	return c.jittered(d)
}

// jittered spreads d across the +-Jitter band so that a burst of clients
// rejected together does not return in lockstep.
func (c *Client) jittered(d time.Duration) time.Duration {
	if j := c.retry.Jitter; j > 0 {
		c.mu.Lock()
		f := 1 + j*(2*c.rng.Float64()-1)
		c.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// retryDelay picks the sleep before retry number retry (1-based): the
// jittered exponential backoff, unless the previous attempt carried a
// server Retry-After hint, which takes precedence — capped at MaxBackoff
// so a misbehaving server cannot park the client, and still jittered.
func (c *Client) retryDelay(retry int, hint time.Duration) time.Duration {
	if hint <= 0 {
		return c.backoff(retry)
	}
	if c.retry.MaxBackoff > 0 && hint > c.retry.MaxBackoff {
		hint = c.retry.MaxBackoff
	}
	return c.jittered(hint)
}

// retryableStatus reports whether a status code is safe and useful to
// retry: gateway-class failures where the response carries no decision,
// and 429 — the admission layer shed the request before any side effect,
// explicitly inviting a retry after backoff.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout || code == http.StatusTooManyRequests
}

// retryAfterHint extracts the server's Retry-After from the previous
// attempt's error, if any.
func retryAfterHint(err error) time.Duration {
	var se *ServerError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// parseRetryAfter reads a Retry-After header value, either delay-seconds
// or an HTTP date; 0 means absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func (c *Client) countFault(path, kind string) {
	if c.metrics != nil {
		c.metrics.Faults.With(path, kind).Inc()
	}
}

// do performs one logical API call with retries. Mutating calls (anything
// but GET) carry an idempotency key that is reused across attempts, so
// the server applies the mutation at most once even when responses are
// lost and the call is retried.
func (c *Client) do(method, path string, in, out any) error {
	return c.doCtx(c.ctx, method, path, in, out)
}

// doCtx is do deriving from the caller's context, joining its causal
// trace (see doKeyedCtx).
func (c *Client) doCtx(ctx context.Context, method, path string, in, out any) error {
	var idemKey string
	if method != http.MethodGet {
		idemKey = c.newIdempotencyKey()
	}
	return c.doKeyedCtx(ctx, method, path, idemKey, in, out)
}

// doKeyed is do with a caller-chosen idempotency key: callers that retry a
// logical operation across their own failure-handling episodes (the PTT's
// degraded-mode backlog) keep the key stable so the server applies the
// mutation at most once across all of them.
func (c *Client) doKeyed(method, path, idemKey string, in, out any) error {
	return c.doKeyedCtx(c.ctx, method, path, idemKey, in, out)
}

// doKeyedCtx performs one logical call with retries under ctx. A span
// context is fixed once per logical call — derived from the trace in ctx
// when there is one, freshly minted otherwise — and sent as the
// Traceparent header on every attempt, so all retries of one call (and,
// via ReplicatedClient, every replica it is routed to) share one trace ID and
// the fault episode is reconstructable end-to-end from the server-side
// event logs.
func (c *Client) doKeyedCtx(ctx context.Context, method, path, idemKey string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = c.encode(in)
		if err != nil {
			return fmt.Errorf("policyhttp: encode request: %w", err)
		}
	}
	var sc obs.SpanContext
	if parent, ok := obs.SpanFromContext(ctx); ok {
		sc = obs.SpanContext{TraceID: parent.TraceID, SpanID: obs.NewSpanID()}
	} else {
		sc = obs.NewSpanContext()
	}
	if c.metrics != nil {
		c.metrics.Requests.With(path).Inc()
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if c.metrics != nil {
				c.metrics.Retries.With(path).Inc()
			}
			c.sleep(c.retryDelay(attempt-1, retryAfterHint(lastErr)))
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("policyhttp: %s %s: %w", method, path, err)
			}
		}
		done, err := c.attempt(ctx, method, path, body, idemKey, sc, in != nil, out)
		if done {
			return err
		}
		lastErr = err
	}
	if c.metrics != nil {
		c.metrics.Exhausted.With(path).Inc()
	}
	return lastErr
}

// attempt performs one HTTP attempt. done=false means the failure is
// retryable; done=true returns the final result (success or not).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, idemKey string, sc obs.SpanContext, hasBody bool, out any) (done bool, err error) {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return true, fmt.Errorf("policyhttp: build request: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", c.contentType())
	}
	req.Header.Set("Accept", c.contentType())
	if idemKey != "" {
		req.Header.Set(IdempotencyKeyHeader, idemKey)
	}
	if sc.Valid() {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	if method != http.MethodGet {
		if e := c.epoch.Load(); e > 0 {
			req.Header.Set(EpochHeader, strconv.FormatUint(e, 10))
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.countFault(path, "transport")
		return false, fmt.Errorf("policyhttp: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if h := resp.Header.Get(EpochHeader); h != "" {
		if e, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			c.RaiseEpoch(e)
		}
	}
	if retryableStatus(resp.StatusCode) {
		kind := "http_5xx"
		if resp.StatusCode == http.StatusTooManyRequests {
			kind = "http_429"
		}
		c.countFault(path, kind)
		return false, c.decodeError(resp)
	}
	if c.metrics != nil && resp.Header.Get(IdempotencyReplayedHeader) != "" {
		c.metrics.IdempotentReplays.With(path).Inc()
	}
	if resp.StatusCode >= 400 {
		return true, c.decodeError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return true, nil
	}
	if c.useXML {
		if err := xml.NewDecoder(resp.Body).Decode(out); err != nil {
			return true, fmt.Errorf("policyhttp: decode response: %w", err)
		}
		return true, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return true, fmt.Errorf("policyhttp: decode response: %w", err)
	}
	return true, nil
}

// ServerError is an error response decoded from the service. StatusCode
// distinguishes deterministic rejections (4xx — the service is healthy and
// refused the request) from server-side failures (5xx).
type ServerError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent); on
	// 429/503 it feeds the retry loop's backoff.
	RetryAfter time.Duration
	// Epoch is the fencing epoch the server stamped on the response
	// (X-Policy-Epoch; zero when the server has no failover role). On a
	// 412 it tells the caller which epoch fenced the request.
	Epoch uint64
	// raw is the undecoded body, used when no error document was parsed.
	raw string
}

// Error implements error.
func (e *ServerError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("policyhttp: server: %s (HTTP %d)", e.Message, e.StatusCode)
	}
	return fmt.Sprintf("policyhttp: HTTP %d: %s", e.StatusCode, e.raw)
}

// IsRejection reports whether err is a deterministic server-side rejection
// (HTTP 4xx): the service is healthy, it just refused the request. Every
// identically-configured replica would refuse it the same way.
func IsRejection(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.StatusCode >= 400 && se.StatusCode < 500
}

// IsBusy reports whether err is the service shedding load (HTTP 429): the
// service is healthy but at capacity, and the request was rejected before
// any side effect — back off and retry rather than treating the service
// as failed. IsRejection is also true for 429, so busy-aware callers must
// check IsBusy first.
func IsBusy(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.StatusCode == http.StatusTooManyRequests
}

// HTTPStatus exposes the status code behind interface checks, letting
// packages that only see the error (not this package's types) classify
// busy responses.
func (e *ServerError) HTTPStatus() int { return e.StatusCode }

func (c *Client) decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	ra := parseRetryAfter(resp.Header.Get("Retry-After"))
	epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	var doc ErrorDoc
	if c.useXML {
		if xml.Unmarshal(data, &doc) == nil && doc.Message != "" {
			return &ServerError{StatusCode: resp.StatusCode, Message: doc.Message, RetryAfter: ra, Epoch: epoch}
		}
	} else if json.Unmarshal(data, &doc) == nil && doc.Message != "" {
		return &ServerError{StatusCode: resp.StatusCode, Message: doc.Message, RetryAfter: ra, Epoch: epoch}
	}
	return &ServerError{StatusCode: resp.StatusCode, RetryAfter: ra, Epoch: epoch, raw: strings.TrimSpace(string(data))}
}

// AdviseTransfers submits a transfer list and returns the modified list.
func (c *Client) AdviseTransfers(specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	return c.AdviseTransfersCtx(c.ctx, specs)
}

// AdviseTransfersCtx is AdviseTransfers joining the causal trace carried
// by ctx (all retry attempts share one trace ID).
func (c *Client) AdviseTransfersCtx(ctx context.Context, specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	var doc TransferAdviceDoc
	if err := c.doCtx(ctx, http.MethodPost, "/v1/transfers", &TransferRequest{Transfers: specs}, &doc); err != nil {
		return nil, err
	}
	return &doc.TransferAdvice, nil
}

// ReportTransfers reports completed and failed transfers.
func (c *Client) ReportTransfers(report policy.CompletionReport) (*policy.ReportAck, error) {
	return c.ReportTransfersCtx(c.ctx, report)
}

// ReportTransfersCtx is ReportTransfers joining the causal trace carried
// by ctx.
func (c *Client) ReportTransfersCtx(ctx context.Context, report policy.CompletionReport) (*policy.ReportAck, error) {
	return c.ReportTransfersKeyedCtx(ctx, c.newIdempotencyKey(), report)
}

// ReportTransfersKeyed is ReportTransfers with a caller-chosen idempotency
// key (see KeyedReporter in internal/transfer).
func (c *Client) ReportTransfersKeyed(key string, report policy.CompletionReport) (*policy.ReportAck, error) {
	return c.ReportTransfersKeyedCtx(c.ctx, key, report)
}

// ReportTransfersKeyedCtx combines a caller-chosen idempotency key with a
// caller trace context.
func (c *Client) ReportTransfersKeyedCtx(ctx context.Context, key string, report policy.CompletionReport) (*policy.ReportAck, error) {
	var doc ReportAckDoc
	if err := c.doKeyedCtx(ctx, http.MethodPost, "/v1/transfers/completed", key,
		&CompletionDoc{CompletionReport: report}, &doc); err != nil {
		return nil, err
	}
	return &doc.ReportAck, nil
}

// AdviseCleanups submits a cleanup list and returns the modified list.
func (c *Client) AdviseCleanups(specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	return c.AdviseCleanupsCtx(c.ctx, specs)
}

// AdviseCleanupsCtx is AdviseCleanups joining the causal trace carried by
// ctx.
func (c *Client) AdviseCleanupsCtx(ctx context.Context, specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	var doc CleanupAdviceDoc
	if err := c.doCtx(ctx, http.MethodPost, "/v1/cleanups", &CleanupRequest{Cleanups: specs}, &doc); err != nil {
		return nil, err
	}
	return &doc.CleanupAdvice, nil
}

// ReportCleanups reports completed cleanups.
func (c *Client) ReportCleanups(report policy.CleanupReport) (*policy.ReportAck, error) {
	return c.ReportCleanupsCtx(c.ctx, report)
}

// ReportCleanupsCtx is ReportCleanups joining the causal trace carried by
// ctx.
func (c *Client) ReportCleanupsCtx(ctx context.Context, report policy.CleanupReport) (*policy.ReportAck, error) {
	return c.ReportCleanupsKeyedCtx(ctx, c.newIdempotencyKey(), report)
}

// ReportCleanupsKeyed is ReportCleanups with a caller-chosen idempotency
// key.
func (c *Client) ReportCleanupsKeyed(key string, report policy.CleanupReport) (*policy.ReportAck, error) {
	return c.ReportCleanupsKeyedCtx(c.ctx, key, report)
}

// ReportCleanupsKeyedCtx combines a caller-chosen idempotency key with a
// caller trace context.
func (c *Client) ReportCleanupsKeyedCtx(ctx context.Context, key string, report policy.CleanupReport) (*policy.ReportAck, error) {
	var doc ReportAckDoc
	if err := c.doKeyedCtx(ctx, http.MethodPost, "/v1/cleanups/completed", key,
		&CleanupReportDoc{CleanupReport: report}, &doc); err != nil {
		return nil, err
	}
	return &doc.ReportAck, nil
}

// RenewLease registers or extends the workflow's liveness lease.
func (c *Client) RenewLease(workflowID string) (*policy.LeaseStatus, error) {
	return c.renewLeaseCtx(c.ctx, workflowID)
}

func (c *Client) renewLeaseCtx(ctx context.Context, workflowID string) (*policy.LeaseStatus, error) {
	var doc LeaseStatusDoc
	if err := c.doCtx(ctx, http.MethodPost, "/v1/leases/renew", &LeaseRenewal{WorkflowID: workflowID}, &doc); err != nil {
		return nil, err
	}
	return &doc.LeaseStatus, nil
}

// Leases lists the active leases and the holdings behind each.
func (c *Client) Leases() (*policy.LeaseList, error) {
	var doc LeaseListDoc
	if err := c.do(http.MethodGet, "/v1/leases", nil, &doc); err != nil {
		return nil, err
	}
	return &doc.LeaseList, nil
}

// AdvanceClock moves the service's logical clock forward, expiring leases
// whose deadlines have passed and reclaiming their holdings.
func (c *Client) AdvanceClock(now float64) (*policy.ClockAdvance, error) {
	return c.advanceClockCtx(c.ctx, now)
}

func (c *Client) advanceClockCtx(ctx context.Context, now float64) (*policy.ClockAdvance, error) {
	var doc ClockAdvanceDoc
	if err := c.doCtx(ctx, http.MethodPost, "/v1/clock/advance", &ClockUpdate{Now: now}, &doc); err != nil {
		return nil, err
	}
	return &doc.ClockAdvance, nil
}

// State fetches the service's externally visible state.
func (c *Client) State() (*policy.Snapshot, error) {
	var doc SnapshotDoc
	if err := c.do(http.MethodGet, "/v1/state", nil, &doc); err != nil {
		return nil, err
	}
	return &doc.Snapshot, nil
}

// SetThreshold sets the stream threshold for a host pair.
func (c *Client) SetThreshold(sourceHost, destHost string, max int) error {
	return c.setThresholdCtx(c.ctx, sourceHost, destHost, max)
}

func (c *Client) setThresholdCtx(ctx context.Context, sourceHost, destHost string, max int) error {
	return c.doCtx(ctx, http.MethodPut, "/v1/thresholds", &ThresholdUpdate{
		SourceHost: sourceHost, DestHost: destHost, Max: max,
	}, nil)
}

// PushBundle stages a policy bundle document without activating it. The
// argument is the raw bundle JSON; it is sent verbatim, because the
// bundle checksum is defined over the document's canonical JSON form.
// XML-mode clients cannot push bundles.
func (c *Client) PushBundle(doc []byte) (*policy.BundleInfo, error) {
	return c.PushBundleCtx(c.ctx, doc)
}

// PushBundleCtx is PushBundle joining the causal trace carried by ctx.
func (c *Client) PushBundleCtx(ctx context.Context, doc []byte) (*policy.BundleInfo, error) {
	if c.useXML {
		return nil, errors.New("policyhttp: bundle documents are JSON-only; use a JSON-mode client")
	}
	var out BundleInfoDoc
	if err := c.doCtx(ctx, http.MethodPut, "/v1/bundles", json.RawMessage(doc), &out); err != nil {
		return nil, err
	}
	return &out.BundleInfo, nil
}

// ActivateBundle activates a previously pushed bundle by version through
// the WAL-logged activation path.
func (c *Client) ActivateBundle(version string) (*policy.BundleInfo, error) {
	return c.ActivateBundleCtx(c.ctx, version)
}

// ActivateBundleCtx is ActivateBundle joining the causal trace carried by
// ctx.
func (c *Client) ActivateBundleCtx(ctx context.Context, version string) (*policy.BundleInfo, error) {
	return c.activateBundleReq(ctx, &BundleActivateRequest{Version: version})
}

// ActivateBundleDoc pushes and activates a bundle document in one call:
// the document rides inside the activation request, so the operation does
// not depend on previously staged (non-durable) state. XML-mode clients
// cannot carry bundle documents.
func (c *Client) ActivateBundleDoc(doc []byte) (*policy.BundleInfo, error) {
	return c.ActivateBundleDocCtx(c.ctx, doc)
}

// ActivateBundleDocCtx is ActivateBundleDoc joining the causal trace
// carried by ctx.
func (c *Client) ActivateBundleDocCtx(ctx context.Context, doc []byte) (*policy.BundleInfo, error) {
	if c.useXML {
		return nil, errors.New("policyhttp: bundle documents are JSON-only; use a JSON-mode client")
	}
	return c.activateBundleReq(ctx, &BundleActivateRequest{Bundle: json.RawMessage(doc)})
}

// RollbackBundle re-activates the previously active bundle.
func (c *Client) RollbackBundle() (*policy.BundleInfo, error) {
	return c.RollbackBundleCtx(c.ctx)
}

// RollbackBundleCtx is RollbackBundle joining the causal trace carried by
// ctx.
func (c *Client) RollbackBundleCtx(ctx context.Context) (*policy.BundleInfo, error) {
	return c.activateBundleReq(ctx, &BundleActivateRequest{Rollback: true})
}

func (c *Client) activateBundleReq(ctx context.Context, req *BundleActivateRequest) (*policy.BundleInfo, error) {
	var out BundleInfoDoc
	if err := c.doCtx(ctx, http.MethodPost, "/v1/bundles/activate", req, &out); err != nil {
		return nil, err
	}
	return &out.BundleInfo, nil
}

// Bundles reports the active, previous, and staged policy bundles.
func (c *Client) Bundles() (*policy.BundleStatus, error) {
	var doc BundleStatusDoc
	if err := c.do(http.MethodGet, "/v1/bundles", nil, &doc); err != nil {
		return nil, err
	}
	return &doc.BundleStatus, nil
}

// Healthz probes the service.
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/v1/healthz", nil, nil)
}

// Metrics fetches the raw Prometheus text-format scrape from /v1/metrics.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.base + "/v1/metrics")
	if err != nil {
		return "", fmt.Errorf("policyhttp: GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return "", c.decodeError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("policyhttp: read metrics: %w", err)
	}
	return string(data), nil
}

// Decisions fetches recent decision provenance records from
// /v1/decisions, oldest first. Zero or empty arguments mean no limit or
// no filter; lfn matches exactly, by path basename, or by suffix; bundle
// keeps only decisions produced under that bundle version.
func (c *Client) Decisions(n int, op, workflow, lfn, bundle string) ([]policy.DecisionRecord, error) {
	q := url.Values{}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	if op != "" {
		q.Set("op", op)
	}
	if workflow != "" {
		q.Set("workflow", workflow)
	}
	if lfn != "" {
		q.Set("lfn", lfn)
	}
	if bundle != "" {
		q.Set("bundle", bundle)
	}
	path := "/v1/decisions"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var doc DecisionListDoc
	if err := c.do(http.MethodGet, path, nil, &doc); err != nil {
		return nil, err
	}
	return doc.Decisions, nil
}

// Dump fetches a full Policy Memory snapshot.
func (c *Client) Dump() (*policy.StateDump, error) {
	var dump policy.StateDump
	if err := c.do(http.MethodGet, "/v1/state/dump", nil, &dump); err != nil {
		return nil, err
	}
	return &dump, nil
}

// Restore replaces the remote service's Policy Memory with the dump.
func (c *Client) Restore(dump *policy.StateDump) error {
	return c.do(http.MethodPost, "/v1/state/restore", dump, nil)
}
