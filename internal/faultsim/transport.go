package faultsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
)

// FaultKind names one injectable HTTP-level fault.
type FaultKind string

const (
	// FaultLoseRequest drops the request before it reaches the server: the
	// handler never runs and the client sees a transport error.
	FaultLoseRequest FaultKind = "lose-request"
	// FaultDropResponse delivers the request — the handler runs and the
	// mutation is applied — but the response is lost; the client sees a
	// transport error and retries with the same idempotency key.
	FaultDropResponse FaultKind = "drop-response"
	// Fault503 answers 503 Service Unavailable without reaching the
	// handler, exercising the client's retryable-status path.
	Fault503 FaultKind = "http-503"
	// FaultDuplicate delivers the request twice back to back (a duplicated
	// message); idempotency must collapse the two deliveries into one
	// application.
	FaultDuplicate FaultKind = "duplicate"
	// FaultDuplicateNoKey duplicates the delivery AND strips the
	// idempotency key from both copies, deliberately breaking at-most-once.
	// It exists so tests can prove the harness detects double application.
	FaultDuplicateNoKey FaultKind = "duplicate-no-key"
	// FaultPartitioned is not queueable: it is the counter key for
	// deliveries refused because the host is network-partitioned (see
	// setPartitioned). A partition persists until healed, unlike the
	// one-shot queued faults above.
	FaultPartitioned FaultKind = "partitioned"
)

// FaultSpec schedules one fault on one replica's next delivery.
type FaultSpec struct {
	Replica int       `json:"replica"`
	Kind    FaultKind `json:"kind"`
}

// errInjected is the transport error surfaced for lost requests and
// dropped responses.
var errInjected = errors.New("faultsim: injected network fault")

// Router is an in-process http.RoundTripper that routes requests by host
// name to registered http.Handlers and injects faults from per-host FIFO
// queues. No sockets are involved, so schedules are fast and fully
// deterministic: a fault is consumed by exactly the delivery it was queued
// for.
type Router struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	queues   map[string][]FaultKind
	// partitioned hosts refuse every delivery with a transport error until
	// healed; queued one-shot faults are left unconsumed.
	partitioned map[string]bool
	// Injected counts consumed faults by kind; HandlerRuns counts actual
	// handler executions per host (duplicated deliveries count twice).
	Injected    map[FaultKind]int
	HandlerRuns map[string]int
}

// newRouter returns an empty router.
func newRouter() *Router {
	return &Router{
		handlers:    make(map[string]http.Handler),
		queues:      make(map[string][]FaultKind),
		partitioned: make(map[string]bool),
		Injected:    make(map[FaultKind]int),
		HandlerRuns: make(map[string]int),
	}
}

// setPartitioned cuts host off the network (or reconnects it). While
// partitioned, every delivery to host fails with a transport error before
// any fault queue or handler is consulted — the request never existed as
// far as the server is concerned.
func (r *Router) setPartitioned(host string, p bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.partitioned[host] = p
}

// isPartitioned reports whether host is currently cut off.
func (r *Router) isPartitioned(host string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.partitioned[host]
}

// register points host (e.g. "replica0") at h, replacing any previous
// handler — this is how a crash-restarted replica swaps its server in.
func (r *Router) register(host string, h http.Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handlers[host] = h
}

// queue schedules a fault for the next delivery to host.
func (r *Router) queue(host string, kind FaultKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queues[host] = append(r.queues[host], kind)
}

// drain clears all pending fault queues, returning how many faults were
// still queued (an op may succeed before consuming every scheduled fault).
func (r *Router) drain() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for host, q := range r.queues {
		n += len(q)
		r.queues[host] = nil
	}
	return n
}

// pop takes the next queued fault for host, if any.
func (r *Router) pop(host string) (FaultKind, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.queues[host]
	if len(q) == 0 {
		return "", false
	}
	kind := q[0]
	r.queues[host] = q[1:]
	r.Injected[kind]++
	return kind, true
}

// RoundTrip implements http.RoundTripper.
func (r *Router) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	h, ok := r.handlers[req.URL.Host]
	part := r.partitioned[req.URL.Host]
	if part {
		r.Injected[FaultPartitioned]++
	}
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("faultsim: no handler registered for host %q", req.URL.Host)
	}
	if part {
		return nil, fmt.Errorf("%w: host %s partitioned", errInjected, req.URL.Host)
	}
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	kind, faulted := r.pop(req.URL.Host)
	if !faulted {
		return r.deliver(h, req, body, false), nil
	}
	switch kind {
	case FaultLoseRequest:
		return nil, fmt.Errorf("%w: request to %s lost", errInjected, req.URL.Host)
	case Fault503:
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain"}},
			Body:    io.NopCloser(bytes.NewReader([]byte("injected 503"))),
			Request: req,
		}, nil
	case FaultDropResponse:
		r.deliver(h, req, body, false) // the server applies; the client never hears
		return nil, fmt.Errorf("%w: response from %s dropped", errInjected, req.URL.Host)
	case FaultDuplicate:
		r.deliver(h, req, body, false)
		return r.deliver(h, req, body, false), nil
	case FaultDuplicateNoKey:
		r.deliver(h, req, body, true)
		return r.deliver(h, req, body, true), nil
	default:
		return nil, fmt.Errorf("faultsim: unknown fault kind %q", kind)
	}
}

// deliver executes the handler once against a reconstructed request and
// returns the recorded response.
func (r *Router) deliver(h http.Handler, req *http.Request, body []byte, stripIdemKey bool) *http.Response {
	cp := req.Clone(req.Context())
	cp.Body = io.NopCloser(bytes.NewReader(body))
	cp.ContentLength = int64(len(body))
	if stripIdemKey {
		cp.Header.Del("Idempotency-Key")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, cp)
	r.mu.Lock()
	r.HandlerRuns[req.URL.Host]++
	r.mu.Unlock()
	resp := rec.Result()
	resp.Request = req
	return resp
}
