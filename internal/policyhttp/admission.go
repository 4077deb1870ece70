package policyhttp

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"

	"policyflow/internal/admit"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// ServiceRunner adapts a policy service to the admission controller's
// batch dispatcher: one call applies a coalesced batch of client
// mutations under a single lock acquisition and leaves its single
// group-commit sync running (policy.Service.ExecutePipelined), so the
// dispatcher applies the next batch during the flush. Members are
// policy.BatchMutation, an admit.Waiter: SubmitMutation returns only once
// a member's commit has released it.
// It alternates two typed batch buffers: a running commit reads its own,
// and ExecutePipelined returns only once the batch before it is released.
func ServiceRunner(svc *policy.Service) admit.BatchRunner {
	var cur, prev []*policy.BatchMutation
	return func(batch []any) {
		cur, prev = prev[:0], cur
		for _, b := range batch {
			cur = append(cur, b.(*policy.BatchMutation))
		}
		svc.ExecutePipelined(cur)
	}
}

// NewAdmissionController builds an admission controller whose batch
// dispatcher drains into svc.ExecutePipelined.
func NewAdmissionController(svc *policy.Service, cfg admit.Config) *admit.Controller {
	return admit.New(cfg, ServiceRunner(svc))
}

// SetAdmission installs the admission controller: advise/report mutations
// go through its coalescing queue and read-only endpoints through its
// concurrency gate, with anything beyond the configured bounds shed as
// 429/503 + Retry-After before any side effect. Call before serving
// traffic. A nil controller (the default) admits everything directly.
func (s *Server) SetAdmission(ctl *admit.Controller) { s.admit = ctl }

// retryAfterSeconds renders the controller's backoff hint as a
// Retry-After header value (integer seconds, minimum 1).
func (s *Server) retryAfterSeconds() string {
	secs := int(math.Ceil(s.admit.RetryAfterHint().Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeFailure maps a failed submission onto the wire. Admission errors
// promise the request had no side effect: 429 + Retry-After for overload
// (healthy but busy — back off and retry), 503 + Retry-After while
// draining for shutdown, and 408 when the client's own context ended
// before the op ran (the response is a courtesy; the client has usually
// stopped listening). Everything else is the op's own error.
func (s *Server) writeFailure(w http.ResponseWriter, f format, err error) {
	switch {
	case errors.Is(err, admit.ErrDraining):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeError(w, f, http.StatusServiceUnavailable, err)
	case errors.Is(err, admit.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, f, http.StatusRequestTimeout, err)
	case errors.Is(err, admit.ErrQueueFull), errors.Is(err, admit.ErrWaitExceeded):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeError(w, f, http.StatusTooManyRequests, err)
	default:
		s.writeError(w, f, statusFor(err), err)
	}
}

// submit runs one mutation and returns its result. Data-plane ops go
// through the admission queue when a controller is installed — blocking
// until the member's batch has committed it (SubmitMutation waits on the
// member) or it was shed, the queue wait traced as an admit.wait span
// ended by the dispatcher at dequeue — and everything else runs directly,
// so an operator can still raise a threshold or bump an epoch during
// overload.
func (s *Server) submit(ctx context.Context, op string, payload any) (any, error) {
	if s.admit == nil || !policy.OpAdmitted(op) {
		return s.svc.Execute(ctx, op, payload)
	}
	mut := &policy.BatchMutation{Ctx: ctx, Op: op, Request: payload}
	_, waitSpan := obs.StartSpan(ctx, s.tracer, "admit.wait")
	// onStart fires only for tasks that reach execution, so the span End
	// calls are mutually exclusive with the error path below.
	var onStart func()
	if waitSpan != nil {
		onStart = waitSpan.End
	}
	if err := s.admit.SubmitMutation(ctx, mut, onStart); err != nil {
		waitSpan.End()
		return nil, err
	}
	return mut.Result, mut.Err
}

// admitRead gates a read-only handler behind the controller's read
// concurrency slots when admission is enabled.
func (s *Server) admitRead(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.admit == nil {
			h(w, r)
			return
		}
		release, err := s.admit.AcquireRead(r.Context())
		if err != nil {
			s.writeFailure(w, responseFormat(r, formatJSON), err)
			return
		}
		defer release()
		h(w, r)
	}
}
