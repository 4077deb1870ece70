package policy

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"policyflow/internal/bundle"
	"policyflow/internal/obs"
	"policyflow/internal/rules"
)

// Algorithm selects the stream-allocation policy applied by the service.
type Algorithm string

const (
	// AlgoNone grants every transfer its requested streams (bookkeeping
	// only) — the paper's default-Pegasus behaviour.
	AlgoNone Algorithm = "none"
	// AlgoGreedy applies the greedy allocation algorithm (Table II).
	AlgoGreedy Algorithm = "greedy"
	// AlgoBalanced applies the balanced allocation algorithm (Table III).
	AlgoBalanced Algorithm = "balanced"
)

// Config configures a policy Service: the compiled-in values New embeds as
// the v0 bundle, plus the lease TTL. Per-pair thresholds and priority
// weighting are not configuration; they come from an activated bundle (or
// set_threshold). The zero value is not valid; use DefaultConfig as a
// starting point.
type Config struct {
	// Algorithm selects greedy, balanced or pass-through allocation.
	Algorithm Algorithm
	// DefaultStreams is assigned to transfers that do not request a
	// stream count ("the default number of streams per transfer").
	DefaultStreams int
	// DefaultThreshold is the maximum number of parallel streams allowed
	// between a host pair when no per-pair threshold is configured.
	DefaultThreshold int
	// ClusterFactor is the number of transfer clusters running in
	// parallel (balanced allocation input; the Pegasus clustering factor).
	ClusterFactor int
	// LeaseTTL, when positive, enables the liveness subsystem: every
	// workflow that calls AdviseTransfers/AdviseCleanups (or renew_lease)
	// holds a lease for this many seconds of the service's logical clock.
	// When the clock (advanced only via advance_clock — the core never
	// reads wall time) passes a lease's deadline, the owner is presumed
	// crashed and its holdings are reclaimed. Zero disables leases.
	LeaseTTL float64
	// referenceMatcher selects the naive full-rejoin rule matcher instead
	// of the incremental one. Test/benchmark hook only: semantics are
	// identical, cost per firing is O(rules × facts^joins).
	referenceMatcher bool
}

// DefaultConfig returns the configuration used in the paper's experiments:
// greedy allocation, 4 default streams per transfer and a 50-stream
// threshold between each host pair.
func DefaultConfig() Config {
	return Config{
		Algorithm:        AlgoGreedy,
		DefaultStreams:   4,
		DefaultThreshold: 50,
		ClusterFactor:    1,
	}
}

// normalize fills in the defaults of unset fields; New checks the rest
// through the v0 bundle's schema.
func (c *Config) normalize() {
	if c.Algorithm == "" {
		c.Algorithm = AlgoGreedy
	}
	if c.DefaultStreams < 1 {
		c.DefaultStreams = 1
	}
	if c.ClusterFactor < 1 {
		c.ClusterFactor = 1
	}
	if c.LeaseTTL < 0 {
		c.LeaseTTL = 0
	}
}

// Service is the policy engine plus its Policy Memory: one long-lived rule
// session whose facts persist across advice requests. It is safe for
// concurrent use: mu is the only lock on Policy Memory, and every call
// into the session, read or write, holds it.
type Service struct {
	mu      sync.Mutex
	cfg     Config
	session *rules.Session

	nextTransfer int
	nextGroup    int
	nextCleanup  int

	// The operator-visible counts live here and nowhere else: Instrument
	// registers read functions over them. advised and suppressed count
	// transfers and ride in state dumps; suppressedByReason splits the
	// suppressed count by DupReason.
	advised            int
	suppressed         int
	suppressedByReason map[string]int
	// Cleanups advised, and cleanups suppressed by reason, likewise.
	cleanupsAdvised      int
	cleanupsSuppByReason map[string]int

	// clock is the service's logical time. It only moves via the logged
	// advance_clock mutation, so lease deadlines and expiry replay
	// identically on every replica.
	clock float64
	// epoch is the fencing epoch, moved only by the logged BumpEpoch
	// mutation (see epoch.go). It rides in state dumps, so standbys and
	// resynced replicas adopt the promoter's epoch.
	epoch uint64
	// Lease lifecycle counters.
	leaseRenewals      int
	leasesExpired      int
	reclaimedTransfers int
	// reportUnmatchedByOp counts report IDs that matched nothing in
	// Policy Memory, split by operation.
	reportUnmatchedByOp map[string]int

	// metrics and tracer are nil until Instrument attaches them.
	metrics *svcMetrics
	tracer  obs.Tracer

	// mlog, when set, receives every mutation command before it is
	// applied (write-ahead). Nil keeps the service purely in-memory.
	mlog MutationLog

	// pipeTail is the commit of the last ExecutePipelined batch, the one
	// the next pipelined batch's commit waits for (see ops.go).
	pipeTail *pipeCommit

	// replica is the position in a donor's log that Policy Memory mirrors
	// (see replica.go): set by ApplyReplica, dropped by every other
	// mutation.
	replica replicaCursor

	// activeBundle/prevBundle are the active bundle document and its
	// predecessor (the rollback target). Both are durable: they ride in
	// state dumps and are reconstructed by WAL replay of activations.
	// activeBundle is the one copy of the tunables: the pointer is swapped
	// only under s.mu, a bundle is never mutated once installed, and rule
	// gates and bodies read it through an accessor while FireAll runs
	// (always under s.mu), so one operation sees exactly one bundle.
	activeBundle *bundle.Bundle
	prevBundle   *bundle.Bundle
	// installed holds v0 plus every bundle ever activated, by version.
	installed map[string]*bundle.Bundle
	// staged holds pushed-but-unactivated bundles. Deliberately
	// non-durable: excluded from dumps, lost on restart.
	staged map[string]*bundle.Bundle
	// bundleActsByResult counts activation attempts by result.
	bundleActsByResult map[string]int

	// decisions is the bounded decision-provenance ring, always present.
	decisions *DecisionLog
	// pendingFirings collects rule activations of the operation in
	// progress, appended by the session's firing observer. Guarded by
	// s.mu (every FireAll call holds it).
	pendingFirings []RuleFiring
	// curTrace is the trace ID of the operation in progress, stamped
	// onto lifecycle events emitted under the lock. Guarded by s.mu.
	curTrace string
}

// svcMetrics holds the series the service pushes: per-operation events
// that no field of the service counts.
type svcMetrics struct {
	requests *obs.CounterVec   // policy_requests_total{op,outcome}
	latency  *obs.HistogramVec // policy_request_seconds{op}
}

// Instrument attaches a metrics registry and an event tracer (either may
// be nil) to the service. The service's counts and state are registered as
// read families, so a scrape reads them under the service lock and an
// instrumented service reports its whole history, imports included; only
// per-operation requests and latencies are pushed. Calling Instrument
// again replaces the tracer and the pushed series.
func (s *Service) Instrument(reg *obs.Registry, tracer obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tracer
	if reg == nil {
		s.metrics = nil
		return
	}
	s.metrics = &svcMetrics{
		requests: reg.Counter("policy_requests_total",
			"Policy service operations by outcome.", "op", "outcome"),
		latency: reg.Histogram("policy_request_seconds",
			"Policy operation latency (rule evaluation included).", nil, "op"),
	}
	read := func(f func(obs.Emit)) func(obs.Emit) {
		return func(emit obs.Emit) {
			s.mu.Lock()
			defer s.mu.Unlock()
			f(emit)
		}
	}
	count := func(name, help string, n *int) {
		reg.CounterFunc(name, help, read(func(emit obs.Emit) { emit(float64(*n)) }))
	}
	byLabel := func(name, help, label string, m map[string]int) {
		reg.CounterFunc(name, help, read(func(emit obs.Emit) {
			for v, n := range m {
				emit(float64(n), v)
			}
		}), label)
	}
	reg.CounterFunc("policy_rule_firings_total", "Policy rule activations fired.",
		read(func(emit obs.Emit) { emit(float64(s.session.Firings())) }))
	count("policy_transfers_advised_total", "Transfers returned for execution.", &s.advised)
	count("policy_transfers_suppressed_total", "Transfers removed as duplicates.", &s.suppressed)
	byLabel("policy_suppressions_total", "Transfer suppressions by reason.", "reason", s.suppressedByReason)
	count("policy_cleanups_advised_total", "Cleanups approved for execution.", &s.cleanupsAdvised)
	byLabel("policy_cleanup_suppressions_total", "Cleanup suppressions by reason.", "reason", s.cleanupsSuppByReason)
	reg.GaugeFunc("policy_memory_facts", "Facts currently held in Policy Memory.",
		read(func(emit obs.Emit) { emit(float64(s.session.FactCount())) }))
	count("policy_lease_renewals_total", "Workflow lease registrations and renewals.", &s.leaseRenewals)
	count("policy_leases_expired_total", "Workflow leases expired by clock advancement.", &s.leasesExpired)
	count("policy_reclaimed_transfers_total", "In-progress transfers reclaimed from expired leases.", &s.reclaimedTransfers)
	byLabel("policy_report_unmatched_total", "Reported IDs that matched nothing in Policy Memory.", "op", s.reportUnmatchedByOp)
	reg.GaugeFunc("policy_bundle_active_info", "Active policy bundle (1 on the active version's label).",
		read(func(emit obs.Emit) { emit(1, s.activeBundle.Version) }), "version")
	byLabel("policy_bundle_activations_total",
		"Bundle activation attempts by result. A WAL replay counts a rollback as activated: its record carries the bundle it lands on.",
		"result", s.bundleActsByResult)
	reg.GaugeFunc("policy_epoch", "Fencing epoch this service believes is current.",
		read(func(emit obs.Emit) { emit(float64(s.epoch)) }))

	// Policy Memory state, each gauge one scan of one fact type (or one
	// index bucket), so a render agrees with /v1/state.
	reg.GaugeFunc("policy_transfers_in_flight", "In-progress transfers.", read(func(emit obs.Emit) {
		emit(float64(rules.CountByKey[*Transfer](s.session, "state", TransferInProgress)))
	}))
	reg.GaugeFunc("policy_staged_files", "Staged files tracked in Policy Memory.", read(func(emit obs.Emit) {
		emit(float64(rules.CountOf(s.session, func(r *Resource) bool { return r.Staged })))
	}))
	reg.GaugeFunc("policy_tracked_files", "File resources tracked in Policy Memory (staged or pending).",
		read(func(emit obs.Emit) { emit(float64(rules.CountOf[*Resource](s.session, nil))) }))
	reg.GaugeFunc("policy_pending_cleanups", "Cleanup operations in progress.", read(func(emit obs.Emit) {
		emit(float64(rules.CountByKey[*Cleanup](s.session, "state", CleanupInProgress)))
	}))
	reg.GaugeFunc("policy_streams_allocated", "Parallel streams currently allocated per host pair.",
		read(func(emit obs.Emit) {
			for _, l := range rules.FactsOf[*StreamLedger](s.session) {
				emit(float64(l.Allocated), l.Pair.Src, l.Pair.Dst)
			}
		}), "src", "dst")
}

// observeOp records one service operation's latency and outcome; a no-op
// when the service is not instrumented.
func (s *Service) observeOp(op string, start time.Time, err error) {
	m := s.metrics
	if m == nil {
		return
	}
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	m.requests.With(op, outcome).Inc()
	m.latency.With(op).Observe(time.Since(start).Seconds())
}

// emit forwards a lifecycle event to the tracer, if any. Callers hold s.mu;
// the tracer serializes internally and never calls back into the service.
// Events emitted during a traced operation are stamped with its trace ID,
// linking the transfer lifecycle to the causal span tree.
func (s *Service) emit(e obs.Event) {
	if s.tracer != nil {
		if e.TraceID == "" {
			e.TraceID = s.curTrace
		}
		s.tracer.Emit(e)
	}
}

// takeFirings returns the rule activations recorded since executeBatch
// began the current member. Called with s.mu held.
func (s *Service) takeFirings() []RuleFiring {
	if len(s.pendingFirings) == 0 {
		return nil
	}
	out := make([]RuleFiring, len(s.pendingFirings))
	copy(out, s.pendingFirings)
	return out
}

// New constructs a Service with the given configuration.
func New(cfg Config) (*Service, error) {
	cfg.normalize()
	// The compiled-in configuration is itself a bundle: v0, active from
	// birth, never WAL-logged, and held to the schema an activation is.
	// Until a real bundle is activated, behavior is bit-identical to the
	// pre-bundle engine.
	v0 := bundleFromConfig(cfg)
	if err := v0.Validate(); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	session := rules.NewSession()
	if cfg.referenceMatcher {
		session = rules.NewReferenceSession()
	}
	s := &Service{cfg: cfg, session: session,
		suppressedByReason:   make(map[string]int),
		cleanupsSuppByReason: make(map[string]int),
		reportUnmatchedByOp:  make(map[string]int),
		installed:            make(map[string]*bundle.Bundle),
		staged:               make(map[string]*bundle.Bundle),
		bundleActsByResult:   make(map[string]int),
		decisions:            NewDecisionLog(DefaultDecisionRing)}
	s.activeBundle = v0
	s.installed[v0.Version] = v0
	// Record every rule activation for decision provenance. The observer
	// runs inside FireAll, which the service only calls while holding
	// s.mu, so pendingFirings needs no extra lock.
	s.session.SetFiringObserver(func(rule string, salience int) {
		s.pendingFirings = append(s.pendingFirings, RuleFiring{Rule: rule, Salience: salience})
	})

	registerIndexes(s.session)

	newGroupID := func() string {
		s.nextGroup++
		return seqID("g-", s.nextGroup, 4)
	}
	// Every rule set is installed up front; algorithm and priority rules
	// carry gates over the active bundle, so activating a bundle can
	// switch allocation policy without rebuilding the session. The accessor
	// reads s.activeBundle without locking: the pointer is only written
	// under s.mu and FireAll only runs under s.mu.
	active := func() *bundle.Bundle { return s.activeBundle }
	s.session.MustAddRules(commonTransferRules(active, newGroupID)...)
	s.session.MustAddRules(cleanupRules()...)
	s.session.MustAddRules(priorityRules(active)...)
	s.session.MustAddRules(greedyRules(active)...)
	s.session.MustAddRules(balancedRules(active)...)
	s.session.MustAddRules(passthroughRules(active)...)
	// LeaseTTL is deployment wiring, not policy: it stays outside the
	// bundle surface, so the lease rules remain conditionally installed.
	if cfg.LeaseTTL > 0 {
		s.session.MustAddRules(leaseRules()...)
	}

	return s, nil
}

// ErrEmptyRequest is returned when an advice request has no entries.
var ErrEmptyRequest = errors.New("policy: empty request")

// ErrInvalidRequest marks errors caused by the request itself (missing
// URLs, out-of-range thresholds) as opposed to infrastructure failures
// like a WAL write error. Callers — the HTTP layer in particular — must
// distinguish the two: an invalid request is rejected deterministically by
// every replica, while an infrastructure failure is local to one and means
// the replica is unhealthy. Test with errors.Is.
var ErrInvalidRequest = errors.New("policy: invalid request")

// AdviseTransfers evaluates a list of requested transfers against the
// policy rules and returns the modified list: duplicates removed, group IDs
// and stream counts assigned, ordered by priority and group. Transfers in
// the returned list are recorded as in progress until reported via
// ReportTransfers.
func (s *Service) AdviseTransfers(specs []TransferSpec) (*TransferAdvice, error) {
	return s.AdviseTransfersCtx(context.Background(), specs)
}

// AdviseTransfersCtx is AdviseTransfers with causal-trace propagation:
// the span context carried by ctx (installed from a traceparent header
// by the HTTP layer) parents the operation's spans — advise, rule
// firing, WAL append, group-commit sync — and stamps lifecycle events
// and the decision record with the trace ID.
func (s *Service) AdviseTransfersCtx(ctx context.Context, specs []TransferSpec) (*TransferAdvice, error) {
	return Call[*TransferAdvice](ctx, s, OpAdviseTransfers, specs)
}

// validateTransferSpecs checks the whole batch before anything logs or
// touches Policy Memory: a rejected request must leave no partial state
// behind (and no WAL record, and no decision record), or lingering
// Submitted facts would suppress later valid requests for the same files
// as in-batch duplicates.
func validateTransferSpecs(specs []TransferSpec) error {
	if len(specs) == 0 {
		return ErrEmptyRequest
	}
	for i, spec := range specs {
		if spec.SourceURL == "" || spec.DestURL == "" {
			return fmt.Errorf("%w: request %d: source and destination URLs are required", ErrInvalidRequest, i)
		}
	}
	return nil
}

// adviseTransfersLocked is the apply function of advise_transfers (see
// opSpec.apply for the contract): log the specs, insert them as Submitted
// transfers, fire the rules, and assemble the advice and decision lines.
func (s *Service) adviseTransfersLocked(ctx context.Context, specs []TransferSpec) (adv *TransferAdvice, seq uint64, rec *DecisionRecord, err error) {
	if seq, err = s.appendLog(ctx, OpAdviseTransfers, specs); err != nil {
		return
	}
	// Advising doubles as a liveness signal: the calling workflows' leases
	// are registered or extended. Deadlines derive only from the logged
	// specs and logged clock state, so replay reproduces them.
	s.renewLeasesLocked(transferOwners(specs))

	batch := make([]*Transfer, 0, len(specs))
	for _, spec := range specs {
		s.nextTransfer++
		t := &Transfer{
			ID:               seqID("t-", s.nextTransfer, 8),
			RequestID:        spec.RequestID,
			WorkflowID:       spec.WorkflowID,
			JobID:            spec.JobID,
			ClusterID:        spec.ClusterID,
			SourceURL:        spec.SourceURL,
			DestURL:          spec.DestURL,
			Pair:             PairOf(spec.SourceURL, spec.DestURL),
			SizeBytes:        spec.SizeBytes,
			RequestedStreams: spec.RequestedStreams,
			Priority:         spec.Priority,
			State:            TransferSubmitted,
		}
		batch = append(batch, t)
		s.session.Insert(t)
		s.emit(obs.Event{
			Type:       obs.EventSubmitted,
			TransferID: t.ID,
			RequestID:  t.RequestID,
			WorkflowID: t.WorkflowID,
			SourceHost: t.Pair.Src,
			DestHost:   t.Pair.Dst,
			SizeBytes:  t.SizeBytes,
			Priority:   t.Priority,
		})
	}
	if err = s.fireRules(ctx); err != nil {
		return
	}

	adv = &TransferAdvice{}
	lines := make([]DecisionLine, 0, len(batch))
	for _, t := range batch {
		switch t.State {
		case TransferDuplicate:
			adv.Removed = append(adv.Removed, RemovedTransfer{
				RequestID: t.RequestID,
				SourceURL: t.SourceURL,
				DestURL:   t.DestURL,
				Reason:    t.DupReason,
			})
			lines = append(lines, DecisionLine{
				ID:         t.ID,
				RequestID:  t.RequestID,
				WorkflowID: t.WorkflowID,
				FileURL:    t.DestURL,
				Outcome:    OutcomeSuppressed,
				Reason:     t.DupReason,
			})
			s.suppressed++
			s.suppressedByReason[t.DupReason]++
			s.emit(obs.Event{
				Type:       obs.EventSuppressed,
				TransferID: t.ID,
				RequestID:  t.RequestID,
				WorkflowID: t.WorkflowID,
				SourceHost: t.Pair.Src,
				DestHost:   t.Pair.Dst,
				SizeBytes:  t.SizeBytes,
				Reason:     t.DupReason,
			})
			// Detailed duplicate state leaves Policy Memory; the resource
			// association (made by the rules) survives.
			s.session.Retract(t)
		case TransferAdvised:
			t.State = TransferInProgress
			s.session.Update(t)
			s.advised++
			s.emit(obs.Event{
				Type:       obs.EventAdvised,
				TransferID: t.ID,
				RequestID:  t.RequestID,
				WorkflowID: t.WorkflowID,
				GroupID:    t.GroupID,
				SourceHost: t.Pair.Src,
				DestHost:   t.Pair.Dst,
				SizeBytes:  t.SizeBytes,
				Streams:    t.AllocatedStreams,
				Priority:   t.Priority,
			})
			adv.Transfers = append(adv.Transfers, AdvisedTransfer{
				ID:               t.ID,
				RequestID:        t.RequestID,
				WorkflowID:       t.WorkflowID,
				JobID:            t.JobID,
				ClusterID:        t.ClusterID,
				SourceURL:        t.SourceURL,
				DestURL:          t.DestURL,
				SourceHost:       t.Pair.Src,
				DestHost:         t.Pair.Dst,
				SizeBytes:        t.SizeBytes,
				Streams:          t.AllocatedStreams,
				GroupID:          t.GroupID,
				Priority:         t.Priority,
				RequestedStreams: t.RequestedStreams,
			})
			lines = append(lines, DecisionLine{
				ID:         t.ID,
				RequestID:  t.RequestID,
				WorkflowID: t.WorkflowID,
				FileURL:    t.DestURL,
				Outcome:    OutcomeAdvised,
				GroupID:    t.GroupID,
				Streams:    t.AllocatedStreams,
			})
		default:
			err = fmt.Errorf("policy: transfer %s left in unexpected state %v", t.ID, t.State)
			return
		}
	}
	sortAdvice(adv.Transfers)
	if adv.Transfers == nil {
		// Every request was suppressed: the JSON advice still carries an
		// array.
		adv.Transfers = []AdvisedTransfer{}
	}
	return adv, seq, &DecisionRecord{Lines: lines}, nil
}

// fireRules runs the rule engine to quiescence under a rules.fire span.
// Callers hold s.mu.
func (s *Service) fireRules(ctx context.Context) error {
	_, span := obs.StartSpan(ctx, s.tracer, "rules.fire")
	_, err := s.session.FireAll(rules.DefaultBudget)
	span.End()
	if err != nil {
		return fmt.Errorf("policy: rule evaluation: %w", err)
	}
	return nil
}

// sortAdvice orders the returned transfer list: higher priority first, then
// by group ID, then by source and destination URL (Table I: "Sort the list
// of transfers by the source and destination URLs"), then by ID.
func sortAdvice(ts []AdvisedTransfer) {
	slices.SortStableFunc(ts, func(a, b AdvisedTransfer) int {
		if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
			return c
		}
		if c := strings.Compare(a.GroupID, b.GroupID); c != 0 {
			return c
		}
		if c := strings.Compare(a.SourceURL, b.SourceURL); c != 0 {
			return c
		}
		if c := strings.Compare(a.DestURL, b.DestURL); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
}

// ReportTransfers records completed and failed transfers: their detailed
// state is removed from Policy Memory, their streams are released, and (on
// success) the staged file's resource is marked staged so future requests
// for the same file are suppressed. Timings, when present, fill the
// completion events' Seconds. The returned ack counts reported IDs that
// matched an in-progress transfer and those that matched nothing —
// unmatched IDs mean client and service state have drifted (a replayed
// report after reclamation, a client bug) and were previously dropped
// silently.
func (s *Service) ReportTransfers(report CompletionReport) (*ReportAck, error) {
	return s.ReportTransfersCtx(context.Background(), report)
}

// ReportTransfersCtx is ReportTransfers with causal-trace propagation;
// see AdviseTransfersCtx.
func (s *Service) ReportTransfersCtx(ctx context.Context, report CompletionReport) (*ReportAck, error) {
	return Call[*ReportAck](ctx, s, OpReportTransfers, report)
}

// reportTransfersLocked is the apply function of report_transfers.
func (s *Service) reportTransfersLocked(ctx context.Context, report CompletionReport) (ack *ReportAck, seq uint64, rec *DecisionRecord, err error) {
	if seq, err = s.appendLog(ctx, OpReportTransfers, report); err != nil {
		return
	}
	// Count matches against the transfers still present, consuming each ID
	// on match so a duplicate ID within one report counts unmatched —
	// exactly the IDs the transfer-result-unknown rule will garbage-collect.
	// Point queries against the "id" alpha index keep this O(report), not
	// O(resident transfers).
	consumed := make(map[string]bool, len(report.TransferIDs)+len(report.FailedIDs))
	live := func(id string) bool {
		if consumed[id] {
			return false
		}
		t, ok := transferByID(s.session, id)
		return ok && t.State == TransferInProgress
	}
	ack = &ReportAck{}
	lines := make([]DecisionLine, 0, len(report.TransferIDs)+len(report.FailedIDs))
	line := func(id, outcome string) DecisionLine {
		dl := DecisionLine{ID: id, Outcome: outcome}
		if t, ok := transferByID(s.session, id); ok {
			dl.RequestID = t.RequestID
			dl.WorkflowID = t.WorkflowID
			dl.FileURL = t.DestURL
			dl.GroupID = t.GroupID
			dl.Streams = t.AllocatedStreams
		}
		return dl
	}
	for _, id := range report.TransferIDs {
		if live(id) {
			consumed[id] = true
			ack.Matched++
			lines = append(lines, line(id, OutcomeCompleted))
		} else {
			ack.Unmatched++
			lines = append(lines, line(id, OutcomeUnmatched))
		}
	}
	for _, id := range report.FailedIDs {
		if live(id) {
			consumed[id] = true
			ack.Matched++
			lines = append(lines, line(id, OutcomeFailed))
		} else {
			ack.Unmatched++
			lines = append(lines, line(id, OutcomeUnmatched))
		}
	}
	if ack.Unmatched > 0 {
		s.reportUnmatchedByOp["report_transfers"] += ack.Unmatched
	}
	if s.tracer != nil {
		// Completion and failure events need the transfer facts before
		// retraction, to carry host pair and stream context.
		seconds := make(map[string]float64, len(report.Timings))
		for _, tm := range report.Timings {
			seconds[tm.TransferID] = tm.Seconds
		}
		s.emitResults(obs.EventCompleted, report.TransferIDs, seconds)
		s.emitResults(obs.EventFailed, report.FailedIDs, seconds)
	}
	for _, id := range report.TransferIDs {
		s.session.Insert(&TransferResult{TransferID: id})
	}
	for _, id := range report.FailedIDs {
		s.session.Insert(&TransferResult{TransferID: id, Failed: true})
	}
	if err = s.fireRules(ctx); err != nil {
		return
	}
	return ack, seq, &DecisionRecord{Lines: lines}, nil
}

// emitResults emits one lifecycle event per reported transfer ID,
// enriched from the still-present Transfer fact. Callers hold s.mu.
func (s *Service) emitResults(eventType string, ids []string, seconds map[string]float64) {
	for _, id := range ids {
		e := obs.Event{Type: eventType, TransferID: id, Seconds: seconds[id]}
		if t, ok := transferByID(s.session, id); ok {
			e.RequestID = t.RequestID
			e.WorkflowID = t.WorkflowID
			e.GroupID = t.GroupID
			e.SourceHost = t.Pair.Src
			e.DestHost = t.Pair.Dst
			e.SizeBytes = t.SizeBytes
			e.Streams = t.AllocatedStreams
		}
		s.emit(e)
	}
}

// AdviseCleanups evaluates a list of file-deletion requests: duplicates and
// deletions of files still in use by other workflows are removed. Approved
// cleanups are recorded as in progress until reported via ReportCleanups.
func (s *Service) AdviseCleanups(specs []CleanupSpec) (*CleanupAdvice, error) {
	return s.AdviseCleanupsCtx(context.Background(), specs)
}

// AdviseCleanupsCtx is AdviseCleanups with causal-trace propagation;
// see AdviseTransfersCtx.
func (s *Service) AdviseCleanupsCtx(ctx context.Context, specs []CleanupSpec) (*CleanupAdvice, error) {
	return Call[*CleanupAdvice](ctx, s, OpAdviseCleanups, specs)
}

// validateCleanupSpecs is whole-batch validation before logging or
// inserting facts, for the same atomicity reason as
// validateTransferSpecs.
func validateCleanupSpecs(specs []CleanupSpec) error {
	if len(specs) == 0 {
		return ErrEmptyRequest
	}
	for i, spec := range specs {
		if spec.FileURL == "" {
			return fmt.Errorf("%w: cleanup request %d: file URL is required", ErrInvalidRequest, i)
		}
	}
	return nil
}

// adviseCleanupsLocked is the apply function of advise_cleanups.
func (s *Service) adviseCleanupsLocked(ctx context.Context, specs []CleanupSpec) (adv *CleanupAdvice, seq uint64, rec *DecisionRecord, err error) {
	if seq, err = s.appendLog(ctx, OpAdviseCleanups, specs); err != nil {
		return
	}
	s.renewLeasesLocked(cleanupOwners(specs))

	batch := make([]*Cleanup, 0, len(specs))
	for _, spec := range specs {
		s.nextCleanup++
		c := &Cleanup{
			ID:         seqID("c-", s.nextCleanup, 8),
			RequestID:  spec.RequestID,
			WorkflowID: spec.WorkflowID,
			FileURL:    spec.FileURL,
			State:      CleanupSubmitted,
		}
		batch = append(batch, c)
		s.session.Insert(c)
	}
	if err = s.fireRules(ctx); err != nil {
		return
	}

	adv = &CleanupAdvice{}
	lines := make([]DecisionLine, 0, len(batch))
	for _, c := range batch {
		switch c.State {
		case CleanupRemoved:
			adv.Removed = append(adv.Removed, RemovedCleanup{
				RequestID: c.RequestID,
				FileURL:   c.FileURL,
				Reason:    c.Reason,
			})
			lines = append(lines, DecisionLine{
				ID:         c.ID,
				RequestID:  c.RequestID,
				WorkflowID: c.WorkflowID,
				FileURL:    c.FileURL,
				Outcome:    OutcomeSuppressed,
				Reason:     c.Reason,
			})
			s.cleanupsSuppByReason[c.Reason]++
			s.emit(obs.Event{
				Type:       obs.EventCleanupSuppressed,
				TransferID: c.ID,
				RequestID:  c.RequestID,
				WorkflowID: c.WorkflowID,
				FileURL:    c.FileURL,
				Reason:     c.Reason,
			})
			s.session.Retract(c)
		case CleanupAdvised:
			c.State = CleanupInProgress
			s.session.Update(c)
			s.cleanupsAdvised++
			s.emit(obs.Event{
				Type:       obs.EventCleanupAdvised,
				TransferID: c.ID,
				RequestID:  c.RequestID,
				WorkflowID: c.WorkflowID,
				FileURL:    c.FileURL,
			})
			adv.Cleanups = append(adv.Cleanups, AdvisedCleanup{
				ID:         c.ID,
				RequestID:  c.RequestID,
				WorkflowID: c.WorkflowID,
				FileURL:    c.FileURL,
			})
			lines = append(lines, DecisionLine{
				ID:         c.ID,
				RequestID:  c.RequestID,
				WorkflowID: c.WorkflowID,
				FileURL:    c.FileURL,
				Outcome:    OutcomeAdvised,
			})
		default:
			err = fmt.Errorf("policy: cleanup %s left in unexpected state %v", c.ID, c.State)
			return
		}
	}
	if adv.Cleanups == nil {
		// Every request was suppressed: the JSON advice still carries an
		// array.
		adv.Cleanups = []AdvisedCleanup{}
	}
	return adv, seq, &DecisionRecord{Lines: lines}, nil
}

// ReportCleanups records completed cleanup operations; their state and the
// deleted files' resources are removed from Policy Memory. The returned
// ack counts IDs that matched an in-progress cleanup versus matched
// nothing, mirroring ReportTransfers.
func (s *Service) ReportCleanups(report CleanupReport) (*ReportAck, error) {
	return s.ReportCleanupsCtx(context.Background(), report)
}

// ReportCleanupsCtx is ReportCleanups with causal-trace propagation;
// see AdviseTransfersCtx.
func (s *Service) ReportCleanupsCtx(ctx context.Context, report CleanupReport) (*ReportAck, error) {
	return Call[*ReportAck](ctx, s, OpReportCleanups, report)
}

// reportCleanupsLocked is the apply function of report_cleanups.
func (s *Service) reportCleanupsLocked(ctx context.Context, report CleanupReport) (ack *ReportAck, seq uint64, rec *DecisionRecord, err error) {
	if seq, err = s.appendLog(ctx, OpReportCleanups, report); err != nil {
		return
	}
	consumed := make(map[string]bool, len(report.CleanupIDs))
	live := func(id string) bool {
		if consumed[id] {
			return false
		}
		c, ok := rules.FirstByKey[*Cleanup](s.session, "id", id)
		return ok && c.State == CleanupInProgress
	}
	ack = &ReportAck{}
	lines := make([]DecisionLine, 0, len(report.CleanupIDs))
	for _, id := range report.CleanupIDs {
		dl := DecisionLine{ID: id, Outcome: OutcomeCleaned}
		if live(id) {
			consumed[id] = true
			ack.Matched++
		} else {
			ack.Unmatched++
			dl.Outcome = OutcomeUnmatched
		}
		if c, ok := rules.FirstByKey[*Cleanup](s.session, "id", id); ok {
			dl.RequestID = c.RequestID
			dl.WorkflowID = c.WorkflowID
			dl.FileURL = c.FileURL
			if s.tracer != nil {
				s.emit(obs.Event{Type: obs.EventCleaned, TransferID: id,
					RequestID: c.RequestID, WorkflowID: c.WorkflowID, FileURL: c.FileURL})
			}
		} else if s.tracer != nil {
			s.emit(obs.Event{Type: obs.EventCleaned, TransferID: id})
		}
		lines = append(lines, dl)
		s.session.Insert(&CleanupResult{CleanupID: id})
	}
	if ack.Unmatched > 0 {
		s.reportUnmatchedByOp["report_cleanups"] += ack.Unmatched
	}
	if err = s.fireRules(ctx); err != nil {
		return
	}
	return ack, seq, &DecisionRecord{Lines: lines}, nil
}

func validateThreshold(op ThresholdOp) error {
	if op.SourceHost == "" || op.DestHost == "" {
		return fmt.Errorf("%w: sourceHost and destHost are required", ErrInvalidRequest)
	}
	if op.Max < 1 {
		return fmt.Errorf("%w: threshold must be >= 1, got %d", ErrInvalidRequest, op.Max)
	}
	return nil
}

// setThresholdLocked is the apply function of set_threshold.
func (s *Service) setThresholdLocked(ctx context.Context, op ThresholdOp) (_ any, seq uint64, _ *DecisionRecord, err error) {
	if seq, err = s.appendLog(ctx, OpSetThreshold, op); err != nil {
		return
	}
	pair := HostPair{Src: op.SourceHost, Dst: op.DestHost}
	if th, ok := rules.FirstByKey[*Threshold](s.session, "pair", pair); ok {
		th.Max = op.Max
		s.session.Update(th)
		return
	}
	s.session.Insert(&Threshold{Pair: pair, Max: op.Max})
	return
}

// Snapshot reports the externally visible state of the service.
func (s *Service) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Algorithm:      s.activeBundle.Algorithm,
		DefaultStreams: s.activeBundle.DefaultStreams,
		Bundle:         s.activeBundle.Version,
	}
	inFlightByPair := make(map[HostPair]int)
	for _, t := range rules.FactsOf[*Transfer](s.session) {
		if t.State == TransferInProgress {
			snap.InFlight++
			inFlightByPair[t.Pair]++
		}
	}
	for _, r := range rules.FactsOf[*Resource](s.session) {
		snap.TrackedFiles++
		if r.Staged {
			snap.StagedResources++
		}
	}
	snap.PendingCleanups = rules.CountOf(s.session, func(c *Cleanup) bool {
		return c.State == CleanupInProgress
	})
	thresholds := make(map[HostPair]int)
	for _, th := range rules.FactsOf[*Threshold](s.session) {
		thresholds[th.Pair] = th.Max
	}
	for _, l := range rules.FactsOf[*StreamLedger](s.session) {
		// A bundle activation drops the Threshold facts of pairs it does
		// not pin; such a pair's next advise installs the active default.
		th, ok := thresholds[l.Pair]
		if !ok {
			th = s.activeBundle.DefaultThreshold
		}
		snap.Pairs = append(snap.Pairs, PairState{
			SourceHost: l.Pair.Src,
			DestHost:   l.Pair.Dst,
			Threshold:  th,
			Allocated:  l.Allocated,
			InFlight:   inFlightByPair[l.Pair],
		})
	}
	sort.Slice(snap.Pairs, func(i, j int) bool {
		if snap.Pairs[i].SourceHost != snap.Pairs[j].SourceHost {
			return snap.Pairs[i].SourceHost < snap.Pairs[j].SourceHost
		}
		return snap.Pairs[i].DestHost < snap.Pairs[j].DestHost
	})
	return snap
}

// Stats returns cumulative counters: transfers advised and suppressed.
func (s *Service) Stats() (advised, suppressed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advised, s.suppressed
}

// RuleFirings returns the lifetime rule-firing count of the underlying
// engine session (a scalability diagnostic).
func (s *Service) RuleFirings() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session.Firings()
}

// FactCount returns the number of facts currently in Policy Memory.
func (s *Service) FactCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session.FactCount()
}

// seqID returns prefix followed by n zero-padded to width digits: the
// bytes fmt.Sprintf("%s%0*d", prefix, width, n) prints for n >= 0, in one
// allocation where Sprintf takes two.
func seqID(prefix string, n, width int) string {
	var buf [32]byte
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	b := append(buf[:0], prefix...)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}
