package policy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"policyflow/internal/obs"
)

// Logged operation names. The policy service is deterministic, so a log of
// the mutation *requests* — replayed in order against a service built with
// the same configuration — reproduces Policy Memory exactly, including
// assigned transfer, group and cleanup IDs. These constants name the
// operations in WAL records and archive tails.
const (
	OpAdviseTransfers = "advise_transfers"
	OpReportTransfers = "report_transfers"
	OpAdviseCleanups  = "advise_cleanups"
	OpReportCleanups  = "report_cleanups"
	OpSetThreshold    = "set_threshold"
	OpImportState     = "import_state"
	OpRenewLease      = "renew_lease"
	OpAdvanceClock    = "advance_clock"
	OpActivateBundle  = "activate_bundle"
	OpBumpEpoch       = "bump_epoch"
)

// BatchMutation is the single mutation command: a logged op name and its
// request payload going in, a result or Err coming out. Every mutation of
// Policy Memory — in-process typed calls, admitted HTTP requests, WAL
// replay, standby tail apply — is one of these handed to ExecuteBatch.
type BatchMutation struct {
	// Ctx carries the submitting client's context: its trace span parents
	// the operation's spans, and if it is already done when the batch
	// executes, the mutation is abandoned with that error before any side
	// effect (no WAL append, no fact changes, no decision record).
	Ctx context.Context
	// Op is the logged op name (one of the Op* constants); Request is its
	// payload, of the type the op's table entry decodes WAL records into.
	Op      string
	Request any

	// Result is the op's typed result (nil for ops that only acknowledge)
	// and Err its error; exactly what the typed Service methods return.
	Result any
	Err    error

	// Carried from the locked apply to the post-sync commit.
	span, syncSpan *obs.Span
	seq            uint64
	rec            *DecisionRecord
	pending        []observation
}

// observation is one timing sample destined for the performance observer,
// captured under the lock (before the rules retract the transfer facts)
// and delivered after the lock is released so the observer may call back
// into the service.
type observation struct {
	pair    HostPair
	streams int
	size    int64
	seconds float64
}

// opSpec is one row of the op table — everything the service knows about
// a logged op. Adding an op is one row here plus its apply function (and
// one route line in internal/policyhttp).
type opSpec struct {
	name string
	span string // "policy.<name>"
	// admitted marks the data-plane ops that queue behind the admission
	// controller; control-plane ops bypass it so an operator can still
	// raise a threshold or bump an epoch during overload.
	admitted bool
	// decode turns a WAL record's JSON payload back into the request.
	decode func(payload []byte) (any, error)
	// validate rejects a malformed request before any side effect, with
	// the same ErrInvalidRequest for HTTP, in-process and replay callers.
	validate func(req any) error
	// apply runs with s.mu held: append the WAL record (if the op changes
	// anything), mutate Policy Memory, fire the rules. It returns the
	// result, the WAL sequence to sync (0 = nothing logged), a decision
	// record carrying the per-entry lines (nil = the op records no
	// decision; ExecuteBatch fills in the rest), and timing observations
	// to deliver once the lock is released.
	apply func(s *Service, ctx context.Context, req any) (any, uint64, *DecisionRecord, []observation, error)
}

// defineOp builds a table row from typed pieces, so apply functions keep
// their concrete request and result types.
func defineOp[P, R any](name string, admitted bool, decode func([]byte) (P, error), validate func(P) error,
	apply func(*Service, context.Context, P) (R, uint64, *DecisionRecord, []observation, error)) *opSpec {
	return &opSpec{
		name: name, span: "policy." + name, admitted: admitted,
		decode: func(payload []byte) (any, error) { return decode(payload) },
		validate: func(req any) error {
			p, ok := req.(P)
			if !ok {
				return fmt.Errorf("%w: %s payload is %T, want %T", ErrInvalidRequest, name, req, p)
			}
			if validate == nil {
				return nil
			}
			return validate(p)
		},
		apply: func(s *Service, ctx context.Context, req any) (any, uint64, *DecisionRecord, []observation, error) {
			res, seq, rec, pending, err := apply(s, ctx, req.(P))
			if err != nil {
				return nil, seq, nil, nil, err
			}
			return res, seq, rec, pending, nil
		},
	}
}

// decodeJSON is the payload decoder of every op whose WAL record is the
// plain JSON form of its request type.
func decodeJSON[P any](payload []byte) (p P, err error) {
	err = json.Unmarshal(payload, &p)
	return p, err
}

// ops is the op table, in declaration order.
var ops = []*opSpec{
	defineOp(OpAdviseTransfers, true, decodeJSON[[]TransferSpec], validateTransferSpecs, (*Service).adviseTransfersLocked),
	defineOp(OpReportTransfers, true, decodeJSON[CompletionReport], nil, (*Service).reportTransfersLocked),
	defineOp(OpAdviseCleanups, true, decodeJSON[[]CleanupSpec], validateCleanupSpecs, (*Service).adviseCleanupsLocked),
	defineOp(OpReportCleanups, true, decodeJSON[CleanupReport], nil, (*Service).reportCleanupsLocked),
	defineOp(OpSetThreshold, false, decodeJSON[ThresholdOp], validateThreshold, (*Service).setThresholdLocked),
	defineOp(OpImportState, false, decodeJSON[*StateDump], validateDump, (*Service).importStateLocked),
	defineOp(OpRenewLease, false, decodeJSON[LeaseOp], validateLease, (*Service).renewLeaseLocked),
	defineOp(OpAdvanceClock, false, decodeJSON[ClockOp], validateClock, (*Service).advanceClockLocked),
	defineOp(OpActivateBundle, false, decodeBundleOp, validateBundleOp, (*Service).activateBundleLocked),
	defineOp(OpBumpEpoch, false, decodeJSON[EpochOp], nil, (*Service).bumpEpochLocked),
}

var opByName = func() map[string]*opSpec {
	m := make(map[string]*opSpec, len(ops))
	for _, op := range ops {
		m[op.name] = op
	}
	return m
}()

// OpNames lists the logged ops, in table order.
func OpNames() []string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.name
	}
	return names
}

// OpAdmitted reports whether op is a data-plane op that callers fronting
// the service with an admission queue must submit through it. Unknown ops
// report false; Execute rejects them.
func OpAdmitted(op string) bool {
	spec := opByName[op]
	return spec != nil && spec.admitted
}

// Execute runs one mutation: ExecuteBatch of one. The typed Service
// methods are one-line wrappers over it.
func (s *Service) Execute(ctx context.Context, op string, payload any) (any, error) {
	m := BatchMutation{Ctx: ctx, Op: op, Request: payload}
	one := [1]*BatchMutation{&m}
	s.ExecuteBatch(one[:])
	return m.Result, m.Err
}

// execAs is Execute with the result narrowed to the op's result type.
func execAs[R any](s *Service, ctx context.Context, op string, payload any) (R, error) {
	res, err := s.Execute(ctx, op, payload)
	r, _ := res.(R)
	return r, err
}

// ExecuteBatch is the one mutation path: a single lock acquisition for
// the whole batch, one validation + rule-firing pass per member (each
// client still gets its own result, spans, metrics sample and decision
// record), and one group-commit sync covering every WAL record the batch
// appended. Results and errors are written back onto the members.
//
// Write-ahead order: records are appended under the lock, synced outside
// it (so concurrent batches overlap their fsyncs), and a member is
// acknowledged — and its decision record committed — only after the
// sync. Members whose Ctx is already done are skipped before any side
// effect. A failed sync fails every logged member: none of their records
// is confirmed durable, so none may be acknowledged.
func (s *Service) ExecuteBatch(batch []*BatchMutation) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	var maxSeq uint64

	s.mu.Lock()
	tr, mlog := s.tracer, s.mlog
	for _, m := range batch {
		ctx := m.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		if m.Err = ctx.Err(); m.Err != nil {
			continue
		}
		op := opByName[m.Op]
		if op == nil {
			m.Err = fmt.Errorf("%w: unknown op %q", ErrInvalidRequest, m.Op)
			continue
		}
		if m.Err = op.validate(m.Request); m.Err != nil {
			continue
		}
		ctx, m.span = obs.StartSpan(ctx, tr, op.span)
		// Lifecycle events and the decision record of this member carry
		// its trace ID; rule activations are collected from here on.
		if sc, ok := obs.SpanFromContext(ctx); ok {
			s.curTrace = sc.TraceID
		}
		s.pendingFirings = s.pendingFirings[:0]
		factsBefore, firingsBefore := s.session.FactCount(), s.session.Firings()
		m.Result, m.seq, m.rec, m.pending, m.Err = op.apply(s, ctx, m.Request)
		if m.rec != nil {
			m.rec.Op, m.rec.TraceID, m.rec.WALSeq, m.rec.Bundle = op.name, s.curTrace, m.seq, s.tun.Version
			m.rec.FactsBefore, m.rec.FactsAfter = factsBefore, s.session.FactCount()
			m.rec.RulesFired = s.takeFirings()
		}
		s.observeOp(op.name, start, firingsBefore, m.Err)
		s.curTrace = ""
		if m.seq > maxSeq {
			maxSeq = m.seq
		}
	}
	observer := s.observer
	s.mu.Unlock()

	// Each logged member gets a wal.sync span under its own op span, all
	// covering the one shared sync interval.
	if tr != nil && maxSeq != 0 {
		for _, m := range batch {
			if m.seq != 0 {
				_, m.syncSpan = obs.StartSpan(obs.ContextWithSpan(context.Background(), m.span.Context()), tr, "wal.sync")
				m.syncSpan.SetWALSeq(m.seq)
			}
		}
	}
	serr := syncLog(mlog, maxSeq)
	for _, m := range batch {
		if serr != nil && m.seq != 0 && m.Err == nil {
			m.Result, m.Err = nil, serr
		}
		if m.Err == nil && m.rec != nil {
			s.decisions.Add(*m.rec)
		}
		m.syncSpan.End()
		m.span.SetWALSeq(m.seq)
		m.span.End()
	}
	if observer != nil {
		for _, m := range batch {
			if m.Err != nil {
				continue
			}
			for _, o := range m.pending {
				observer(o.pair, o.streams, o.size, o.seconds)
			}
		}
	}
}

// ApplyLogged replays one logged mutation — crash recovery, a standby
// applying its primary's tail, an archive restore — through the same
// table and the same Execute as live traffic. Errors that mean the record
// could not be applied HERE are returned: an unknown op or undecodable
// payload (the log is damaged) and ErrMutationLog failures of this
// service's own log (the record is not durable locally, so the caller
// must not advance past it). Application errors are discarded because
// replay is deterministic: a request the rules or validation rejected
// when first submitted is rejected identically now.
func (s *Service) ApplyLogged(op string, payload []byte) error {
	spec := opByName[op]
	if spec == nil {
		return fmt.Errorf("%w: replay: unknown logged op %q", ErrInvalidRequest, op)
	}
	req, err := spec.decode(payload)
	if err != nil {
		return fmt.Errorf("%w: replay %s: %v", ErrInvalidRequest, op, err)
	}
	if _, err := s.Execute(context.Background(), op, req); errors.Is(err, ErrMutationLog) {
		return fmt.Errorf("policy: replay %s: %w", op, err)
	}
	return nil
}
