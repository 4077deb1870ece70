package transfer

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
	"policyflow/internal/simnet"
	"policyflow/internal/workflow"
)

// Config configures a PTT instance.
type Config struct {
	// Advisor is the policy service; nil runs without policy (default
	// Pegasus behaviour: every transfer uses DefaultStreams).
	Advisor Advisor
	// Fabric executes the actual data movement; required.
	Fabric Fabric
	// DefaultStreams is used for every transfer when no policy service is
	// configured, and sent as the requested stream count when one is.
	// (The paper's experiments vary this "default streams per transfer".)
	DefaultStreams int
	// SessionSetupSeconds is the cost of opening a transfer session to a
	// new host pair (GridFTP connection + authentication). Grouping
	// transfers by host pair amortizes it (Fig. 2's motivation).
	SessionSetupSeconds float64
	// TransferSetupSeconds is the per-transfer initiation overhead within
	// an open session.
	TransferSetupSeconds float64
	// PolicyCallSeconds models the round-trip latency of one policy
	// service call (the paper: the approach "incurs overheads for the
	// service calls").
	PolicyCallSeconds float64
	// Tracer, when set, receives a started event (stamped with the
	// simulation clock) for every transfer the PTT begins executing.
	Tracer obs.Tracer
	// Breaker configures the fail-open circuit breaker around the policy
	// advisor. The zero value disables it: policy-call failures fail the
	// staging task, the pre-existing behaviour.
	Breaker BreakerConfig
}

// BreakerConfig tunes the PTT's degraded mode. When the policy service is
// unreachable for FailureThreshold consecutive calls, the breaker opens:
// staging proceeds with locally computed defaults (DefaultStreams per
// transfer, host-pair grouping), cleanups are deferred, and unreported
// completions queue in a bounded backlog. After CooldownSeconds of
// simulated time one call probes the service again; on success the PTT
// reconciles — re-acquires its lease and drains the backlog, reusing each
// queued report's idempotency key so nothing is applied twice.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive policy-call failures
	// that opens the breaker; 0 disables the breaker entirely.
	FailureThreshold int
	// CooldownSeconds is how long (simulated time) the breaker stays open
	// before probing the service again. Defaults to 30.
	CooldownSeconds float64
	// BacklogLimit bounds the unreported-completion queue; the oldest
	// entry is dropped on overflow. Defaults to 256.
	BacklogLimit int
}

func (c *Config) normalize() error {
	if c.Fabric == nil {
		return errors.New("transfer: Config.Fabric is required")
	}
	if c.DefaultStreams < 1 {
		c.DefaultStreams = 4
	}
	if c.SessionSetupSeconds < 0 || c.TransferSetupSeconds < 0 || c.PolicyCallSeconds < 0 {
		return errors.New("transfer: negative overhead")
	}
	if c.Breaker.FailureThreshold > 0 {
		if c.Breaker.CooldownSeconds <= 0 {
			c.Breaker.CooldownSeconds = 30
		}
		if c.Breaker.BacklogLimit <= 0 {
			c.Breaker.BacklogLimit = 256
		}
	}
	return nil
}

// Stats aggregates PTT activity counters.
type Stats struct {
	// TransfersExecuted counts transfers actually performed.
	TransfersExecuted int64
	// TransfersSuppressed counts transfers the policy service removed.
	TransfersSuppressed int64
	// TransfersFailed counts failed transfer attempts.
	TransfersFailed int64
	// BytesMoved totals the payload of executed transfers.
	BytesMoved int64
	// PolicyCalls counts round trips to the policy service.
	PolicyCalls int64
	// Sessions counts transfer sessions opened (host-pair groups).
	Sessions int64
	// CleanupsExecuted and CleanupsSuppressed count deletion operations.
	CleanupsExecuted   int64
	CleanupsSuppressed int64
	// DegradedTransfers counts transfers executed with fail-open defaults
	// while the breaker was open or the advice call failed.
	DegradedTransfers int64
	// BreakerOpens counts breaker open transitions.
	BreakerOpens int64
	// PolicyBusy counts policy calls shed by server admission control
	// (HTTP 429). Busy is "healthy but overloaded": the call is degraded
	// or queued like a failure, but does not count toward the breaker
	// threshold — tripping to fail-open would convert a transient
	// overload into a policy-blind stampede.
	PolicyBusy int64
	// BacklogQueued, BacklogDropped and BacklogDrained count completion
	// reports entering, overflowing out of, and successfully leaving the
	// degraded-mode backlog.
	BacklogQueued  int64
	BacklogDropped int64
	BacklogDrained int64
	// Reconciles counts recoveries that fully drained the backlog.
	Reconciles int64
	// CleanupsDeferred counts deletions skipped while degraded (without
	// policy knowledge a shared file must not be deleted).
	CleanupsDeferred int64
	// LeaseRenewals counts explicit lease re-acquisitions at reconcile.
	LeaseRenewals int64
}

// PTT is the Pegasus Transfer Tool equivalent. Safe for concurrent use by
// many simulated processes.
type PTT struct {
	cfg Config
	// exec runs every policy call: the advisor itself when it is a
	// policy.Executor (direct), else advisorExecutor over it; nil without
	// an advisor. New resolves it once.
	exec   policy.Executor
	direct bool

	mu    sync.Mutex
	stats Stats
	seq   int64

	// Circuit-breaker state, all under mu.
	consecFailures int
	open           bool
	openedAt       float64
	backlog        []backlogEntry
	reconciling    bool
}

// backlogEntry is one completion report: sent once, and held while the
// policy service is unreachable. For a direct advisor ctx carries the
// advised batch's trace, which a drained report still joins, and an
// idempotency key minted before the first attempt and reused on every
// drain, so an advisor that honors keys (the REST clients) applies the
// report at most once even if an earlier attempt's response was lost.
type backlogEntry struct {
	ctx        context.Context
	op         string
	payload    any
	workflowID string
}

// New creates a PTT.
func New(cfg Config) (*PTT, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := &PTT{cfg: cfg}
	switch a := cfg.Advisor.(type) {
	case nil:
	case policy.Executor:
		t.exec, t.direct = a, true
	default:
		t.exec = advisorExecutor{a}
	}
	return t, nil
}

// Stats returns a snapshot of the activity counters.
func (t *PTT) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *PTT) bump(f func(*Stats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}

// ErrTransfersFailed reports that one or more transfers in a list failed;
// the caller (the workflow executor) retries the staging job.
var ErrTransfersFailed = errors.New("transfer: one or more transfers failed")

// breakerEnabled reports whether the fail-open breaker is in effect.
func (t *PTT) breakerEnabled() bool {
	return t.exec != nil && t.cfg.Breaker.FailureThreshold > 0
}

// breakerOpen reports whether policy calls should be skipped at simulated
// time now. Once the cooldown has elapsed the next call is allowed
// through as a probe; the breaker itself stays open until that probe
// succeeds (policySucceeded) or fails (policyFailed restarts the
// cooldown).
func (t *PTT) breakerOpen(now float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open && now-t.openedAt < t.cfg.Breaker.CooldownSeconds
}

// isBusy reports whether a policy-call error is an admission shed (HTTP
// 429): the service is alive and refusing extra load before any side
// effect. Matched structurally — any error exposing HTTPStatus() int,
// such as the REST client's ServerError — so this package stays
// independent of the HTTP client.
func isBusy(err error) bool {
	var sc interface{ HTTPStatus() int }
	return errors.As(err, &sc) && sc.HTTPStatus() == http.StatusTooManyRequests
}

// policyBusy records one shed policy call. Deliberately does not touch
// consecFailures: a 429 proves the service is up, so it must neither
// open the breaker nor (as a success would) reset the count and mask a
// real outage pattern.
func (t *PTT) policyBusy() {
	t.bump(func(s *Stats) { s.PolicyBusy++ })
}

// policyFailed records one failed policy call at simulated time now,
// opening the breaker at the configured threshold.
func (t *PTT) policyFailed(now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.consecFailures++
	if t.open {
		// A failed probe: restart the cooldown.
		t.openedAt = now
		return
	}
	if t.consecFailures >= t.cfg.Breaker.FailureThreshold {
		t.open = true
		t.openedAt = now
		t.stats.BreakerOpens++
	}
}

// policySucceeded records one successful policy call. If the PTT had been
// degraded (breaker open, or reports queued) it reconciles: re-acquires
// the workflow's lease and drains the backlog.
func (t *PTT) policySucceeded(p *simnet.Proc, workflowID string) {
	if !t.breakerEnabled() {
		return
	}
	t.mu.Lock()
	t.consecFailures = 0
	wasOpen := t.open
	t.open = false
	pending := len(t.backlog)
	t.mu.Unlock()
	if wasOpen || pending > 0 {
		t.reconcile(p, workflowID)
	}
}

// nextSeq advances the sequence behind request IDs and report keys.
func (t *PTT) nextSeq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return t.seq
}

// seqID returns workflowID, infix and n zero-padded to six digits: the
// bytes fmt.Sprintf("%s%s%06d", workflowID, infix, n) prints for n >= 0,
// in one allocation.
func seqID(workflowID, infix string, n int64) string {
	var buf [64]byte
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], n, 10)
	b := append(append(buf[:0], workflowID...), infix...)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// newBatch mints the trace one advised batch shares (its advise call, the
// rule firings behind it, its completion report and its started events)
// when anything receives it: a direct advisor, or the Tracer when events
// is set. Otherwise it returns the zero span and the background context.
func (t *PTT) newBatch(events bool) (obs.SpanContext, context.Context) {
	if !t.direct && !(events && t.cfg.Tracer != nil) {
		return obs.SpanContext{}, context.Background()
	}
	sc := obs.NewSpanContext()
	return sc, obs.ContextWithSpan(context.Background(), sc)
}

// enqueueBacklog queues one unreported completion, dropping the oldest
// entry when the bound is reached.
func (t *PTT) enqueueBacklog(e backlogEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.backlog) >= t.cfg.Breaker.BacklogLimit {
		t.backlog = t.backlog[1:]
		t.stats.BacklogDropped++
	}
	t.backlog = append(t.backlog, e)
	t.stats.BacklogQueued++
}

// roundTrip models one policy call's latency in simulated time and counts
// the call.
func (t *PTT) roundTrip(p *simnet.Proc) {
	p.Sleep(t.cfg.PolicyCallSeconds)
	t.bump(func(s *Stats) { s.PolicyCalls++ })
}

// call is one policy call: its round trip, then op on the advisor.
func call[R any](t *PTT, p *simnet.Proc, ctx context.Context, op string, payload any) (R, error) {
	t.roundTrip(p)
	return policy.Call[R](ctx, t.exec, op, payload)
}

// report sends one completion report under the batch's ctx. A direct
// advisor's report carries a key minted before the first attempt. With
// the breaker enabled a failed report is not an error: the transfers
// happened and only the bookkeeping is stuck, so the report queues for
// reconciliation. A shed report (429) was never applied; it queues the
// same way but does not count toward the breaker.
func (t *PTT) report(p *simnet.Proc, ctx context.Context, workflowID, op string, payload any) error {
	t.roundTrip(p)
	// The sequence advances either way, so request IDs do not depend on
	// the advisor's kind.
	n := t.nextSeq()
	if t.direct {
		ctx = policy.WithIdempotencyKey(ctx, seqID(workflowID, "-bk-", n))
	}
	e := backlogEntry{ctx: ctx, op: op, payload: payload, workflowID: workflowID}
	if _, err := t.exec.Execute(e.ctx, e.op, e.payload); err != nil {
		if !t.breakerEnabled() {
			return err
		}
		if isBusy(err) {
			t.policyBusy()
		} else {
			t.policyFailed(p.Now())
		}
		t.enqueueBacklog(e)
		return nil
	}
	t.policySucceeded(p, workflowID)
	return nil
}

// reconcile runs after the service answers again: leases are re-acquired
// for every workflow with queued state (the service may have reclaimed
// their holdings while they looked dead), then the backlog drains in
// order. A delivery failure requeues the remainder and re-opens the
// breaker accounting; the next recovery picks up where this one stopped.
func (t *PTT) reconcile(p *simnet.Proc, workflowID string) {
	t.mu.Lock()
	if t.reconciling {
		t.mu.Unlock()
		return
	}
	t.reconciling = true
	pending := t.backlog
	t.backlog = nil
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.reconciling = false
		t.mu.Unlock()
	}()

	owners := map[string]bool{}
	if workflowID != "" {
		owners[workflowID] = true
	}
	for _, e := range pending {
		if e.workflowID != "" {
			owners[e.workflowID] = true
		}
	}
	sorted := make([]string, 0, len(owners))
	for o := range owners {
		sorted = append(sorted, o)
	}
	sort.Strings(sorted)
	for _, o := range sorted {
		// Best-effort: a rejection here (leases disabled, or an advisor
		// without renewal) must not block the backlog drain.
		if _, err := t.exec.Execute(context.Background(), policy.OpRenewLease, policy.LeaseOp{WorkflowID: o}); err == nil {
			t.bump(func(s *Stats) { s.LeaseRenewals++ })
		}
	}
	for i, e := range pending {
		if _, err := call[any](t, p, e.ctx, e.op, e.payload); err != nil {
			t.mu.Lock()
			t.backlog = append(append([]backlogEntry{}, pending[i:]...), t.backlog...)
			for len(t.backlog) > t.cfg.Breaker.BacklogLimit {
				t.backlog = t.backlog[1:]
				t.stats.BacklogDropped++
			}
			t.mu.Unlock()
			t.policyFailed(p.Now())
			return
		}
		t.bump(func(s *Stats) { s.BacklogDrained++ })
	}
	t.bump(func(s *Stats) { s.Reconciles++ })
}

// executeDegraded stages the list without policy advice — the fail-open
// path. The locally computed fallback mirrors what the service would do
// knowing nothing: DefaultStreams per transfer, transfers grouped by host
// pair to amortize session setup. Duplicate suppression and threshold
// enforcement are unavailable; the workflow makes progress anyway, which
// is the point.
func (t *PTT) executeDegraded(p *simnet.Proc, ops []workflow.TransferOp) error {
	sorted := append([]workflow.TransferOp(nil), ops...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a := policy.PairOf(sorted[i].SourceURL, sorted[i].DestURL)
		b := policy.PairOf(sorted[j].SourceURL, sorted[j].DestURL)
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	t.bump(func(s *Stats) { s.DegradedTransfers += int64(len(sorted)) })
	return t.executeWithoutPolicy(p, sorted)
}

// ExecuteList performs a list of transfer operations on behalf of one
// staging task. With a policy service configured it submits the list for
// advice first, executes the modified list in the advised order (grouped
// by host pair, paying one session setup per group), and reports
// completions and failures back. Without a policy service it executes the
// operations in the given order with DefaultStreams each, opening a new
// session whenever the host pair changes.
func (t *PTT) ExecuteList(p *simnet.Proc, workflowID, clusterID string, ops []workflow.TransferOp, priority int) error {
	if len(ops) == 0 {
		return nil
	}
	if t.exec == nil {
		return t.executeWithoutPolicy(p, ops)
	}
	return t.executeWithPolicy(p, workflowID, clusterID, ops, priority)
}

func (t *PTT) executeWithoutPolicy(p *simnet.Proc, ops []workflow.TransferOp) error {
	var lastPair policy.HostPair
	first := true
	var failed int
	for _, op := range ops {
		pair := policy.PairOf(op.SourceURL, op.DestURL)
		if first || pair != lastPair {
			p.Sleep(t.cfg.SessionSetupSeconds)
			t.bump(func(s *Stats) { s.Sessions++ })
			lastPair, first = pair, false
		}
		p.Sleep(t.cfg.TransferSetupSeconds)
		if err := t.cfg.Fabric.Transfer(p, op.SourceURL, op.DestURL, op.SizeBytes, t.cfg.DefaultStreams); err != nil {
			failed++
			t.bump(func(s *Stats) { s.TransfersFailed++ })
			continue
		}
		t.bump(func(s *Stats) {
			s.TransfersExecuted++
			s.BytesMoved += op.SizeBytes
		})
	}
	if failed > 0 {
		return fmt.Errorf("%w: %d of %d", ErrTransfersFailed, failed, len(ops))
	}
	return nil
}

func (t *PTT) executeWithPolicy(p *simnet.Proc, workflowID, clusterID string, ops []workflow.TransferOp, priority int) error {
	specs := make([]policy.TransferSpec, 0, len(ops))
	for _, op := range ops {
		specs = append(specs, policy.TransferSpec{
			RequestID:        seqID(workflowID, "-", t.nextSeq()),
			WorkflowID:       workflowID,
			ClusterID:        clusterID,
			SourceURL:        op.SourceURL,
			DestURL:          op.DestURL,
			SizeBytes:        op.SizeBytes,
			RequestedStreams: t.cfg.DefaultStreams,
			Priority:         priority,
		})
	}
	if t.breakerEnabled() && t.breakerOpen(p.Now()) {
		return t.executeDegraded(p, ops)
	}
	batch, ctx := t.newBatch(true)
	adv, err := call[*policy.TransferAdvice](t, p, ctx, policy.OpAdviseTransfers, specs)
	if err != nil {
		if !t.breakerEnabled() {
			return fmt.Errorf("transfer: policy advice: %w", err)
		}
		if isBusy(err) {
			// Healthy but busy: run this batch with defaults, breaker
			// untouched.
			t.policyBusy()
			return t.executeDegraded(p, ops)
		}
		// Fail open: the service is unreachable, the data still moves.
		t.policyFailed(p.Now())
		return t.executeDegraded(p, ops)
	}
	t.policySucceeded(p, workflowID)
	t.bump(func(s *Stats) { s.TransfersSuppressed += int64(len(adv.Removed)) })

	var completed, failedIDs []string
	var timings []policy.TransferTiming
	var lastGroup string
	first := true
	for _, tr := range adv.Transfers {
		if first || tr.GroupID != lastGroup {
			p.Sleep(t.cfg.SessionSetupSeconds)
			t.bump(func(s *Stats) { s.Sessions++ })
			lastGroup, first = tr.GroupID, false
		}
		p.Sleep(t.cfg.TransferSetupSeconds)
		start := p.Now()
		if t.cfg.Tracer != nil {
			t.cfg.Tracer.Emit(obs.Event{
				Type:       obs.EventStarted,
				TraceID:    batch.TraceID,
				TransferID: tr.ID,
				RequestID:  tr.RequestID,
				WorkflowID: tr.WorkflowID,
				GroupID:    tr.GroupID,
				SourceHost: tr.SourceHost,
				DestHost:   tr.DestHost,
				SizeBytes:  tr.SizeBytes,
				Streams:    tr.Streams,
				Priority:   tr.Priority,
				SimSeconds: start,
			})
		}
		if err := t.cfg.Fabric.Transfer(p, tr.SourceURL, tr.DestURL, tr.SizeBytes, tr.Streams); err != nil {
			failedIDs = append(failedIDs, tr.ID)
			t.bump(func(s *Stats) { s.TransfersFailed++ })
			continue
		}
		completed = append(completed, tr.ID)
		timings = append(timings, policy.TransferTiming{TransferID: tr.ID, Seconds: p.Now() - start})
		t.bump(func(s *Stats) {
			s.TransfersExecuted++
			s.BytesMoved += tr.SizeBytes
		})
	}

	if len(completed) > 0 || len(failedIDs) > 0 {
		report := policy.CompletionReport{
			TransferIDs: completed,
			FailedIDs:   failedIDs,
			Timings:     timings,
		}
		if err := t.report(p, ctx, workflowID, policy.OpReportTransfers, report); err != nil {
			return fmt.Errorf("transfer: completion report: %w", err)
		}
	}
	if len(failedIDs) > 0 {
		return fmt.Errorf("%w: %d of %d", ErrTransfersFailed, len(failedIDs), len(adv.Transfers))
	}
	return nil
}

// ExecuteCleanups deletes the given staged-file URLs on behalf of a
// cleanup task, consulting the policy service first when configured (the
// service removes duplicates and files other workflows still use) and
// reporting successful deletions afterwards.
func (t *PTT) ExecuteCleanups(p *simnet.Proc, workflowID string, urls []string) error {
	if len(urls) == 0 {
		return nil
	}
	if t.exec == nil {
		for _, u := range urls {
			if err := t.cfg.Fabric.Delete(p, u); err != nil {
				return fmt.Errorf("transfer: delete %s: %w", u, err)
			}
			t.bump(func(s *Stats) { s.CleanupsExecuted++ })
		}
		return nil
	}
	specs := make([]policy.CleanupSpec, 0, len(urls))
	for _, u := range urls {
		specs = append(specs, policy.CleanupSpec{RequestID: seqID(workflowID, "-c", t.nextSeq()), WorkflowID: workflowID, FileURL: u})
	}
	if t.breakerEnabled() && t.breakerOpen(p.Now()) {
		// Fail safe, not open: without policy knowledge a staged file may
		// still be in use by another workflow, so deletions are deferred
		// rather than risked.
		t.bump(func(s *Stats) { s.CleanupsDeferred += int64(len(urls)) })
		return nil
	}
	_, ctx := t.newBatch(false)
	adv, err := call[*policy.CleanupAdvice](t, p, ctx, policy.OpAdviseCleanups, specs)
	if err != nil {
		if !t.breakerEnabled() {
			return fmt.Errorf("transfer: cleanup advice: %w", err)
		}
		if isBusy(err) {
			// Shed, not down: defer the deletions (fail safe) without
			// counting toward the breaker.
			t.policyBusy()
			t.bump(func(s *Stats) { s.CleanupsDeferred += int64(len(urls)) })
			return nil
		}
		t.policyFailed(p.Now())
		t.bump(func(s *Stats) { s.CleanupsDeferred += int64(len(urls)) })
		return nil
	}
	t.policySucceeded(p, workflowID)
	t.bump(func(s *Stats) { s.CleanupsSuppressed += int64(len(adv.Removed)) })
	var done []string
	for _, c := range adv.Cleanups {
		if err := t.cfg.Fabric.Delete(p, c.FileURL); err != nil {
			return fmt.Errorf("transfer: delete %s: %w", c.FileURL, err)
		}
		done = append(done, c.ID)
		t.bump(func(s *Stats) { s.CleanupsExecuted++ })
	}
	if len(done) > 0 {
		if err := t.report(p, ctx, workflowID, policy.OpReportCleanups, policy.CleanupReport{CleanupIDs: done}); err != nil {
			return fmt.Errorf("transfer: cleanup report: %w", err)
		}
	}
	return nil
}
