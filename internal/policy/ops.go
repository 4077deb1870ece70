package policy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
// Policy Memory is one of these: admitted HTTP requests are handed to
// ExecutePipelined, and in-process typed calls, WAL replay and standby
// tail apply to executeBatch.
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
	commit         *pipeCommit // nil unless ExecutePipelined left the commit running
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
	// decision; executeBatch fills in the rest) and the error.
	apply func(s *Service, ctx context.Context, req any) (any, uint64, *DecisionRecord, error)
}

// defineOp builds a table row from typed pieces, so apply functions keep
// their concrete request and result types.
func defineOp[P, R any](name string, admitted bool, decode func([]byte) (P, error), validate func(P) error,
	apply func(*Service, context.Context, P) (R, uint64, *DecisionRecord, error)) *opSpec {
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
		apply: func(s *Service, ctx context.Context, req any) (any, uint64, *DecisionRecord, error) {
			res, seq, rec, err := apply(s, ctx, req.(P))
			if err != nil {
				return nil, seq, nil, err
			}
			return res, seq, rec, nil
		},
	}
}

// ops is the op table, in declaration order.
var ops = []*opSpec{
	defineOp(OpAdviseTransfers, true, decodeJSON(list(transferSpecFields)), validateTransferSpecs, (*Service).adviseTransfersLocked),
	defineOp(OpReportTransfers, true, decodeJSON(object(completionReportFields)), nil, (*Service).reportTransfersLocked),
	defineOp(OpAdviseCleanups, true, decodeJSON(list(cleanupSpecFields)), validateCleanupSpecs, (*Service).adviseCleanupsLocked),
	defineOp(OpReportCleanups, true, decodeJSON(object(cleanupReportFields)), nil, (*Service).reportCleanupsLocked),
	defineOp(OpSetThreshold, false, decodeJSON(object(thresholdOpFields)), validateThreshold, (*Service).setThresholdLocked),
	defineOp(OpImportState, false, DecodeStateDump, validateDump, (*Service).importStateLocked),
	defineOp(OpRenewLease, false, decodeJSON(object(leaseOpFields)), validateLease, (*Service).renewLeaseLocked),
	defineOp(OpAdvanceClock, false, decodeJSON(object(clockOpFields)), validateClock, (*Service).advanceClockLocked),
	defineOp(OpActivateBundle, false, decodeBundleOp, validateBundleOp, (*Service).activateBundleLocked),
	defineOp(OpBumpEpoch, false, decodeJSON(object(epochOpFields)), nil, (*Service).bumpEpochLocked),
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

// Executor runs one logged op: payload has the type the op's table entry
// takes, and the result the type it returns. *Service executes in
// process; the REST clients in internal/policyhttp send the op to a
// server. ctx carries the call's cancellation, its trace (obs), and
// optionally the caller's idempotency key (WithIdempotencyKey).
type Executor interface {
	Execute(ctx context.Context, op string, payload any) (any, error)
}

// Call is Execute with the result narrowed to the op's result type R.
func Call[R any](ctx context.Context, e Executor, op string, payload any) (R, error) {
	res, err := e.Execute(ctx, op, payload)
	r, _ := res.(R)
	return r, err
}

// idemKeyCtx is the context key of a caller-chosen idempotency key.
type idemKeyCtx struct{}

// WithIdempotencyKey returns a context under which a mutation sent to a
// server carries key instead of a freshly minted one. A caller that
// retries one logical operation across its own failure-handling episodes
// (the transfer tool's degraded-mode backlog) keeps the key stable, so
// the server applies the mutation at most once across all of them. An
// in-process Service ignores the key: its calls cannot lose a response.
func WithIdempotencyKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, idemKeyCtx{}, key)
}

// IdempotencyKey returns the key WithIdempotencyKey set on ctx, or "".
func IdempotencyKey(ctx context.Context) string {
	key, _ := ctx.Value(idemKeyCtx{}).(string)
	return key
}

// Execute runs one mutation: executeBatch of one.
func (s *Service) Execute(ctx context.Context, op string, payload any) (any, error) {
	m := BatchMutation{Ctx: ctx, Op: op, Request: payload}
	one := [1]*BatchMutation{&m}
	s.executeBatch(one[:], nil)
	return m.Result, m.Err
}

// executeBatch is the synchronous mutation path, and ExecutePipelined the
// admission dispatcher's; both take a single lock acquisition for the
// whole batch, one validation + rule-firing pass per member (each
// client still gets its own result, spans, metrics sample and decision
// record), and one group-commit sync covering every WAL record the batch
// appended. Results and errors are written back onto the members.
//
// A batch runs in two halves. The locked apply validates each member,
// appends its WAL record, applies it, fires the rules and builds its
// decision record. The commit, outside the lock, syncs once at the
// batch's highest seq, then commits the decision records and ends the
// spans. executeBatch runs both before it returns; ExecutePipelined leaves
// the commit running.
//
// Write-ahead order: records are appended under the lock, synced outside
// it (so concurrent batches overlap their fsyncs), and a member is
// acknowledged — and its decision record committed — only after the
// sync. Members whose Ctx is already done are skipped before any side
// effect. A failed sync fails every logged member: none of their records
// is confirmed durable, so none may be acknowledged.
//
// rep is non-nil when the batch is a run of a donor's log (see
// ApplyReplica). A replica run keeps the replica cursor instead of
// dropping it, applies only on top of the cursor it was cut from, and
// stops at the first member this service could not log: the records
// depend on each other, so none may be applied past a gap.
func (s *Service) executeBatch(batch []*BatchMutation, rep *replicaRun) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	s.mu.Lock()
	a := s.applyLocked(batch, rep, start)
	s.mu.Unlock()
	serr := a.sync(batch)
	if rep != nil && serr != nil {
		rep.fail(s, serr)
	}
	s.commit(batch, serr)
}

// ExecutePipelined is executeBatch for the admission dispatcher. It
// returns once the batch is applied and appended and the previous
// pipelined batch has committed; this batch's commit runs on its own
// goroutine, so the dispatcher applies the next batch while this one's
// sync is in flight. At most two batches' syncs are in flight: the one
// this call waits for, and its own.
//
// Each commit waits for its predecessor's after its own sync, so members
// are released after their sync and in log order — no member, logged or
// not, is released before everything logged ahead of it is durable. A
// failed sync also fails the logged members of the batch pipelined behind
// it. Read a member's Result and Err only after its Wait returns.
func (s *Service) ExecutePipelined(batch []*BatchMutation) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	s.mu.Lock()
	prev := s.pipeTail
	if prev != nil && prev.released.Load() {
		// Committed before this batch was applied: nothing to wait for.
		prev = nil
	}
	a := s.applyLocked(batch, nil, start)
	if a.maxSeq == 0 && prev == nil {
		// Nothing to sync and nothing ahead to wait for: commit here.
		s.pipeTail = nil
		s.mu.Unlock()
		s.commit(batch, nil)
		return
	}
	c := &pipeCommit{}
	c.done.Add(1)
	for _, m := range batch {
		m.commit = c
	}
	s.pipeTail = c
	s.mu.Unlock()
	go s.commitPipelined(batch, a, c, prev)
	if prev != nil {
		prev.done.Wait()
	}
}

// pipeCommit is the commit of one pipelined batch. One allocation: the
// WaitGroup and flag stand in for a channel, which would be a second.
type pipeCommit struct {
	done     sync.WaitGroup // done once the batch's members are released
	released atomic.Bool    // set just before done
	err      error          // the batch's own sync failure; read after done
}

// commitPipelined is the commit half of ExecutePipelined: its own sync,
// then its predecessor's commit, then the members' release.
func (s *Service) commitPipelined(batch []*BatchMutation, a applied, c, prev *pipeCommit) {
	serr := a.sync(batch)
	c.err = serr
	if prev != nil {
		prev.done.Wait()
		if serr == nil {
			serr = prev.err
		}
	}
	s.commit(batch, serr)
	c.released.Store(true)
	c.done.Done()
}

// Wait blocks until the member's Result and Err are final. Members of
// executeBatch are final when it returns; a member of ExecutePipelined is
// final once its batch's commit has released it.
func (m *BatchMutation) Wait() {
	if c := m.commit; c != nil {
		c.done.Wait()
	}
}

// applied is what the locked apply of a batch hands to its commit.
type applied struct {
	maxSeq uint64 // the batch's highest WAL seq; 0 = nothing logged
	mlog   MutationLog
	tr     obs.Tracer
}

// applyLocked is the locked half of a batch: validate, append, apply and
// fire each member, and build its decision record. Callers hold s.mu.
func (s *Service) applyLocked(batch []*BatchMutation, rep *replicaRun, start time.Time) applied {
	a := applied{mlog: s.mlog, tr: s.tracer}
	var stop error
	if rep != nil {
		stop = rep.begin(s)
	}
	for _, m := range batch {
		if m.Err = stop; stop != nil {
			continue
		}
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
		if rep == nil {
			s.replica = replicaCursor{}
		}
		ctx, m.span = obs.StartSpan(ctx, a.tr, op.span)
		// Lifecycle events and the decision record of this member carry
		// its trace ID; rule activations are collected from here on.
		if sc, ok := obs.SpanFromContext(ctx); ok {
			s.curTrace = sc.TraceID
		}
		s.pendingFirings = s.pendingFirings[:0]
		factsBefore := s.session.FactCount()
		m.Result, m.seq, m.rec, m.Err = op.apply(s, ctx, m.Request)
		if m.rec != nil {
			m.rec.Op, m.rec.TraceID, m.rec.WALSeq, m.rec.Bundle = op.name, s.curTrace, m.seq, s.activeBundle.Version
			m.rec.FactsBefore, m.rec.FactsAfter = factsBefore, s.session.FactCount()
			m.rec.RulesFired = s.takeFirings()
		}
		s.observeOp(op.name, start, m.Err)
		s.curTrace = ""
		if m.seq > a.maxSeq {
			a.maxSeq = m.seq
		}
		if rep != nil && errors.Is(m.Err, ErrMutationLog) {
			stop = m.Err
		}
	}
	if rep != nil {
		rep.end(s, stop)
	}
	return a
}

// sync is the batch's one group-commit sync, at its highest seq. Each
// logged member gets a wal.sync span under its own op span, all covering
// the one shared sync interval.
func (a applied) sync(batch []*BatchMutation) error {
	if a.tr != nil && a.maxSeq != 0 {
		for _, m := range batch {
			if m.seq != 0 {
				_, m.syncSpan = obs.StartSpan(obs.ContextWithSpan(context.Background(), m.span.Context()), a.tr, "wal.sync")
				m.syncSpan.SetWALSeq(m.seq)
			}
		}
	}
	return syncLog(a.mlog, a.maxSeq)
}

// commit finishes a batch after its sync: a failed sync (serr) fails
// every logged member, then the surviving decision records are committed
// and the spans ended.
func (s *Service) commit(batch []*BatchMutation, serr error) {
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
