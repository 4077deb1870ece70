package policyhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
	// wire is the client's wire format, JSON unless WithXML.
	wire  format
	retry RetryPolicy
	// sleep waits between retry attempts; injectable so tests and the
	// fault-injection harness never sleep real time.
	sleep   func(time.Duration)
	metrics *obs.ClientMetrics

	// epoch is the highest fencing epoch observed in any response's
	// X-Policy-Epoch header (monotonic; see failover.go). Mutations echo
	// it so a deposed primary learns it has been passed and self-fences.
	epoch atomic.Uint64

	mu         sync.Mutex
	rng        *rand.Rand // backoff jitter
	keyPrefix  string
	keyCounter atomic.Uint64
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithXML makes the client speak XML on the wire (the service supports
// both; the paper's interface offers "XML or JSON data structures").
func WithXML() ClientOption {
	return func(c *Client) { c.wire = formatXML }
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
		base:      strings.TrimRight(baseURL, "/"),
		http:      &http.Client{Timeout: 30 * time.Second},
		retry:     DefaultRetryPolicy(),
		sleep:     time.Sleep,
		keyPrefix: obs.NewID(),
	}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(int64(time.Now().UnixNano())))
	}
	return c
}

// mediaTypes are the Content-Type and Accept values, shared by every request.
var mediaTypes = [...][]string{{"application/json"}, {"application/xml"}}

// retryDelay picks the sleep before retry number retry (1-based): the
// server's Retry-After hint on the previous attempt when it sent one, else
// exponential backoff from BaseBackoff. Either is capped at MaxBackoff, so
// a misbehaving server cannot park the client, and spread across the
// +-Jitter band, so a burst of clients rejected together does not return
// in lockstep.
func (c *Client) retryDelay(retry int, hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		if d = c.retry.BaseBackoff; d <= 0 {
			d = 50 * time.Millisecond
		}
		for i := 1; i < retry && (c.retry.MaxBackoff <= 0 || d < c.retry.MaxBackoff); i++ {
			d *= 2
		}
	}
	if c.retry.MaxBackoff > 0 && d > c.retry.MaxBackoff {
		d = c.retry.MaxBackoff
	}
	if j := c.retry.Jitter; j > 0 {
		c.mu.Lock()
		d = time.Duration(float64(d) * (1 + j*(2*c.rng.Float64()-1)))
		c.mu.Unlock()
	}
	return d
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

// do performs one logical call with retries under ctx. Mutating calls
// (anything but GET) carry one idempotency key across every attempt — the
// caller's (policy.WithIdempotencyKey) or a fresh one — so the server
// applies the mutation at most once even when responses are lost and the
// call is retried. One Traceparent value is built per logical call — a span in the
// trace in ctx, or in a fresh one — and sent on every attempt, so all
// retries of one call (and, via ReplicatedClient, every replica it is
// routed to) share one trace ID in the server-side event logs.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var idemKey string
	if method != http.MethodGet {
		if idemKey = policy.IdempotencyKey(ctx); idemKey == "" {
			var b [64]byte // a key unique to this client and call
			idemKey = string(strconv.AppendUint(append(append(b[:0], c.keyPrefix...), '-'), c.keyCounter.Add(1), 10))
		}
	}
	var body []byte
	if in != nil {
		b := getBuffer()
		err := b.encode(c.wire, in, false)
		body = bytes.Clone(b.Bytes())
		b.release()
		if err != nil {
			return fmt.Errorf("policyhttp: encode request: %w", err)
		}
	}
	traceparent := obs.NewTraceparent(ctx)
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
		done, err := c.attempt(ctx, method, path, body, idemKey, traceparent, out)
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
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, idemKey, traceparent string, out any) (done bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return true, fmt.Errorf("policyhttp: build request: %w", err)
	}
	// The attempt's own header values share one backing array.
	vals := []string{idemKey, traceparent}
	if body != nil {
		req.Header["Content-Type"] = mediaTypes[c.wire]
	}
	req.Header["Accept"] = mediaTypes[c.wire]
	if idemKey != "" {
		req.Header[IdempotencyKeyHeader] = vals[0:1:1]
	}
	req.Header[obs.TraceparentHeader] = vals[1:2:2]
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
	b := getBuffer()
	defer b.release()
	if err := b.decode(resp.Body, math.MaxInt64, c.wire, out, false); err != nil {
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
	b := getBuffer()
	defer b.release()
	ra := parseRetryAfter(resp.Header.Get("Retry-After"))
	epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	se := &ServerError{StatusCode: resp.StatusCode, RetryAfter: ra, Epoch: epoch}
	var doc ErrorDoc
	if b.decode(resp.Body, 64<<10, c.wire, &doc, false) == nil && doc.Message != "" {
		se.Message = doc.Message
	} else {
		se.raw = strings.TrimSpace(b.String())
	}
	return se
}

// Execute runs one logged op on the service: Client is the remote
// policy.Executor. Payload and result have the types policy.Service.Execute
// takes and returns for op, and method, path and wire documents come from
// the route row the server reads. ctx carries the call's cancellation,
// trace and, optionally, the caller's idempotency key
// (policy.WithIdempotencyKey), which every retry of the call reuses.
func (c *Client) Execute(ctx context.Context, op string, payload any) (any, error) {
	rt, ok := routes[op]
	if !ok {
		return nil, fmt.Errorf("%w: unknown op %q", policy.ErrInvalidRequest, op)
	}
	in, ok := rt.req.doc(payload)
	if !ok {
		return nil, fmt.Errorf("%w: %s payload is %T", policy.ErrInvalidRequest, op, payload)
	}
	if rt.reply == nil {
		return nil, c.do(ctx, rt.method, rt.path, in, nil)
	}
	out := rt.reply.blank()
	if err := c.do(ctx, rt.method, rt.path, in, out); err != nil {
		return nil, err
	}
	return rt.reply.value(out), nil
}

// fetch runs one call outside the op table and picks the result out of
// the document the service answered with.
func fetch[D, R any](c *Client, method, path string, in any, pick func(*D) R) (R, error) {
	var doc D
	if err := c.do(context.Background(), method, path, in, &doc); err != nil {
		var zero R
		return zero, err
	}
	return pick(&doc), nil
}

// self is the pick of a document that is itself the result.
func self[D any](d *D) *D { return d }

// AdviseTransfers submits a transfer list and returns the modified list.
func (c *Client) AdviseTransfers(specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	return c.AdviseTransfersCtx(context.Background(), specs)
}

// AdviseTransfersCtx is AdviseTransfers joining the trace carried by ctx.
func (c *Client) AdviseTransfersCtx(ctx context.Context, specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	return policy.Call[*policy.TransferAdvice](ctx, c, policy.OpAdviseTransfers, specs)
}

// ReportTransfers reports completed and failed transfers.
func (c *Client) ReportTransfers(report policy.CompletionReport) (*policy.ReportAck, error) {
	return c.ReportTransfersCtx(context.Background(), report)
}

// ReportTransfersCtx is ReportTransfers joining the trace carried by ctx.
func (c *Client) ReportTransfersCtx(ctx context.Context, report policy.CompletionReport) (*policy.ReportAck, error) {
	return policy.Call[*policy.ReportAck](ctx, c, policy.OpReportTransfers, report)
}

// AdviseCleanups submits a cleanup list and returns the modified list.
func (c *Client) AdviseCleanups(specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	return c.AdviseCleanupsCtx(context.Background(), specs)
}

// AdviseCleanupsCtx is AdviseCleanups joining the trace carried by ctx.
func (c *Client) AdviseCleanupsCtx(ctx context.Context, specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	return policy.Call[*policy.CleanupAdvice](ctx, c, policy.OpAdviseCleanups, specs)
}

// ReportCleanups reports completed cleanups.
func (c *Client) ReportCleanups(report policy.CleanupReport) (*policy.ReportAck, error) {
	return c.ReportCleanupsCtx(context.Background(), report)
}

// ReportCleanupsCtx is ReportCleanups joining the trace carried by ctx.
func (c *Client) ReportCleanupsCtx(ctx context.Context, report policy.CleanupReport) (*policy.ReportAck, error) {
	return policy.Call[*policy.ReportAck](ctx, c, policy.OpReportCleanups, report)
}

// Leases lists the active leases and the holdings behind each.
func (c *Client) Leases() (*policy.LeaseList, error) {
	return fetch(c, http.MethodGet, "/v1/leases", nil, self[policy.LeaseList])
}

// State fetches the service's externally visible state.
func (c *Client) State() (*policy.Snapshot, error) {
	return fetch(c, http.MethodGet, "/v1/state", nil, self[policy.Snapshot])
}

// PushBundle stages a policy bundle document without activating it. The
// argument is the raw bundle JSON; it is sent verbatim, because the
// bundle checksum is defined over the document's canonical JSON form.
// XML-mode clients cannot push bundles.
func (c *Client) PushBundle(doc []byte) (*policy.BundleInfo, error) {
	if c.wire == formatXML {
		return nil, errBundleJSONOnly
	}
	return fetch(c, http.MethodPut, "/v1/bundles", json.RawMessage(doc), func(d *BundleInfoDoc) *policy.BundleInfo { return &d.BundleInfo })
}

// Bundles reports the active, previous, and staged policy bundles.
func (c *Client) Bundles() (*policy.BundleStatus, error) {
	return fetch(c, http.MethodGet, "/v1/bundles", nil, self[policy.BundleStatus])
}

// Healthz probes the service.
func (c *Client) Healthz() error {
	return c.do(context.Background(), http.MethodGet, "/v1/healthz", nil, nil)
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
	for k, v := range map[string]string{"op": op, "workflow": workflow, "lfn": lfn, "bundle": bundle} {
		if v != "" {
			q.Set(k, v)
		}
	}
	path := "/v1/decisions"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return fetch(c, http.MethodGet, path, nil, func(d *DecisionListDoc) []policy.DecisionRecord { return d.Decisions })
}

// Dump fetches a full Policy Memory snapshot.
func (c *Client) Dump() (*policy.StateDump, error) {
	return fetch(c, http.MethodGet, "/v1/state/dump", nil, self[policy.StateDump])
}
