package transfer

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
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
	// Obs, when set, receives per-host-pair transfer metrics (bytes and
	// duration histograms, executed/failed counters).
	Obs *obs.Registry
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
	cfg   Config
	mu    sync.Mutex
	stats Stats
	seq   int64

	// Circuit-breaker state, all under mu.
	consecFailures int
	open           bool
	openedAt       float64
	backlog        []backlogEntry
	reconciling    bool

	metrics *pttMetrics // nil without Config.Obs
}

// backlogEntry is one completion report: sent once, and held while the
// policy service is unreachable. Exactly one of transfers/cleanups is set.
// The key is minted before the first attempt and reused on every drain
// attempt, so an advisor that honors idempotency keys (the REST clients)
// applies the report at most once even if an earlier attempt's response
// was lost. ctx carries the advised batch's trace, which a drained report
// still joins.
type backlogEntry struct {
	ctx        context.Context
	key        string
	workflowID string
	transfers  *policy.CompletionReport
	cleanups   *policy.CleanupReport
}

// pttMetrics holds the PTT's registry series, all labeled by host pair.
type pttMetrics struct {
	bytesHist   *obs.HistogramVec // transfer_size_bytes{src,dst}
	durHist     *obs.HistogramVec // transfer_duration_seconds{src,dst}
	executed    *obs.CounterVec   // transfer_executed_total{src,dst}
	failed      *obs.CounterVec   // transfer_failed_total{src,dst}
	bytesMoved  *obs.CounterVec   // transfer_bytes_total{src,dst}
	sessions    *obs.Counter      // transfer_sessions_total
	policyCalls *obs.Counter      // transfer_policy_calls_total

	degraded       *obs.Counter // transfer_degraded_total
	policyBusy     *obs.Counter // transfer_policy_busy_total
	breakerOpens   *obs.Counter // transfer_breaker_opens_total
	backlogQueued  *obs.Counter // transfer_backlog_queued_total
	backlogDropped *obs.Counter // transfer_backlog_dropped_total
	backlogDrained *obs.Counter // transfer_backlog_drained_total
	reconciles     *obs.Counter // transfer_reconciles_total
}

// New creates a PTT.
func New(cfg Config) (*PTT, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := &PTT{cfg: cfg}
	if reg := cfg.Obs; reg != nil {
		t.metrics = &pttMetrics{
			bytesHist: reg.Histogram("transfer_size_bytes",
				"Executed transfer payload sizes per host pair.",
				obs.ExpBuckets(1<<10, 4, 12), "src", "dst"),
			durHist: reg.Histogram("transfer_duration_seconds",
				"Executed transfer durations (simulated seconds) per host pair.",
				obs.ExpBuckets(0.01, 4, 12), "src", "dst"),
			executed: reg.Counter("transfer_executed_total",
				"Transfers executed per host pair.", "src", "dst"),
			failed: reg.Counter("transfer_failed_total",
				"Transfer attempts failed per host pair.", "src", "dst"),
			bytesMoved: reg.Counter("transfer_bytes_total",
				"Bytes moved per host pair.", "src", "dst"),
			sessions: reg.Counter("transfer_sessions_total",
				"Transfer sessions opened (host-pair groups).").With(),
			policyCalls: reg.Counter("transfer_policy_calls_total",
				"Round trips to the policy service.").With(),
			degraded: reg.Counter("transfer_degraded_total",
				"Transfers executed with fail-open defaults (policy unreachable).").With(),
			policyBusy: reg.Counter("transfer_policy_busy_total",
				"Policy calls shed by server admission control (429).").With(),
			breakerOpens: reg.Counter("transfer_breaker_opens_total",
				"Circuit-breaker open transitions.").With(),
			backlogQueued: reg.Counter("transfer_backlog_queued_total",
				"Completion reports queued while degraded.").With(),
			backlogDropped: reg.Counter("transfer_backlog_dropped_total",
				"Queued completion reports dropped on backlog overflow.").With(),
			backlogDrained: reg.Counter("transfer_backlog_drained_total",
				"Queued completion reports delivered at reconcile.").With(),
			reconciles: reg.Counter("transfer_reconciles_total",
				"Recoveries that fully drained the degraded-mode backlog.").With(),
		}
	}
	return t, nil
}

// observeTransfer records one executed or failed transfer against the
// per-host-pair series; a no-op when Config.Obs is unset.
func (t *PTT) observeTransfer(pair policy.HostPair, sizeBytes int64, seconds float64, failed bool) {
	m := t.metrics
	if m == nil {
		return
	}
	if failed {
		m.failed.With(pair.Src, pair.Dst).Inc()
		return
	}
	m.executed.With(pair.Src, pair.Dst).Inc()
	m.bytesMoved.With(pair.Src, pair.Dst).Add(float64(sizeBytes))
	m.bytesHist.With(pair.Src, pair.Dst).Observe(float64(sizeBytes))
	m.durHist.With(pair.Src, pair.Dst).Observe(seconds)
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
	return t.cfg.Advisor != nil && t.cfg.Breaker.FailureThreshold > 0
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
	if t.metrics != nil {
		t.metrics.policyBusy.Inc()
	}
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
		if t.metrics != nil {
			t.metrics.breakerOpens.Inc()
		}
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

// nextBacklogKey mints the idempotency key a report keeps for life —
// through the first send attempt and every backlog drain after it.
func (t *PTT) nextBacklogKey(workflowID string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("%s-bk-%06d", workflowID, t.seq)
}

// enqueueBacklog queues one unreported completion, dropping the oldest
// entry when the bound is reached.
func (t *PTT) enqueueBacklog(e backlogEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.backlog) >= t.cfg.Breaker.BacklogLimit {
		t.backlog = t.backlog[1:]
		t.stats.BacklogDropped++
		if t.metrics != nil {
			t.metrics.backlogDropped.Inc()
		}
	}
	t.backlog = append(t.backlog, e)
	t.stats.BacklogQueued++
	if t.metrics != nil {
		t.metrics.backlogQueued.Inc()
	}
}

// sendReport delivers one completion report through the richest interface
// the advisor offers: keyed, so every drain reuses the entry's key; else
// traced; else plain.
func (t *PTT) sendReport(e backlogEntry) (err error) {
	kr, keyed := t.cfg.Advisor.(KeyedContextReporter)
	ca, traced := t.cfg.Advisor.(ContextAdvisor)
	switch {
	case e.transfers != nil && keyed:
		_, err = kr.ReportTransfersKeyedCtx(e.ctx, e.key, *e.transfers)
	case e.transfers != nil && traced:
		_, err = ca.ReportTransfersCtx(e.ctx, *e.transfers)
	case e.transfers != nil:
		_, err = t.cfg.Advisor.ReportTransfers(*e.transfers)
	case keyed:
		_, err = kr.ReportCleanupsKeyedCtx(e.ctx, e.key, *e.cleanups)
	case traced:
		_, err = ca.ReportCleanupsCtx(e.ctx, *e.cleanups)
	default:
		_, err = t.cfg.Advisor.ReportCleanups(*e.cleanups)
	}
	return err
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

	if lr, ok := t.cfg.Advisor.(LeaseRenewer); ok {
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
			// Best-effort: a rejection here (e.g. leases disabled) must not
			// block the backlog drain.
			if _, err := lr.RenewLease(o); err == nil {
				t.bump(func(s *Stats) { s.LeaseRenewals++ })
			}
		}
	}
	for i, e := range pending {
		p.Sleep(t.cfg.PolicyCallSeconds)
		t.bump(func(s *Stats) { s.PolicyCalls++ })
		if t.metrics != nil {
			t.metrics.policyCalls.Inc()
		}
		if err := t.sendReport(e); err != nil {
			t.mu.Lock()
			t.backlog = append(append([]backlogEntry{}, pending[i:]...), t.backlog...)
			for len(t.backlog) > t.cfg.Breaker.BacklogLimit {
				t.backlog = t.backlog[1:]
				t.stats.BacklogDropped++
				if t.metrics != nil {
					t.metrics.backlogDropped.Inc()
				}
			}
			t.mu.Unlock()
			t.policyFailed(p.Now())
			return
		}
		t.bump(func(s *Stats) { s.BacklogDrained++ })
		if t.metrics != nil {
			t.metrics.backlogDrained.Inc()
		}
	}
	t.bump(func(s *Stats) { s.Reconciles++ })
	if t.metrics != nil {
		t.metrics.reconciles.Inc()
	}
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
	if t.metrics != nil {
		t.metrics.degraded.Add(float64(len(sorted)))
	}
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
	if t.cfg.Advisor == nil {
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
			if t.metrics != nil {
				t.metrics.sessions.Inc()
			}
			lastPair, first = pair, false
		}
		p.Sleep(t.cfg.TransferSetupSeconds)
		start := p.Now()
		if err := t.cfg.Fabric.Transfer(p, op.SourceURL, op.DestURL, op.SizeBytes, t.cfg.DefaultStreams); err != nil {
			failed++
			t.bump(func(s *Stats) { s.TransfersFailed++ })
			t.observeTransfer(pair, op.SizeBytes, 0, true)
			continue
		}
		t.bump(func(s *Stats) {
			s.TransfersExecuted++
			s.BytesMoved += op.SizeBytes
		})
		t.observeTransfer(pair, op.SizeBytes, p.Now()-start, false)
	}
	if failed > 0 {
		return fmt.Errorf("%w: %d of %d", ErrTransfersFailed, failed, len(ops))
	}
	return nil
}

func (t *PTT) executeWithPolicy(p *simnet.Proc, workflowID, clusterID string, ops []workflow.TransferOp, priority int) error {
	specs := make([]policy.TransferSpec, 0, len(ops))
	for _, op := range ops {
		t.mu.Lock()
		t.seq++
		reqID := fmt.Sprintf("%s-%06d", workflowID, t.seq)
		t.mu.Unlock()
		specs = append(specs, policy.TransferSpec{
			RequestID:        reqID,
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
	// One trace per advised batch: the advise call, the rule firings
	// behind it, the completion report and every started event below
	// share this trace ID.
	batch := obs.NewSpanContext()
	ctx := obs.ContextWithSpan(context.Background(), batch)
	p.Sleep(t.cfg.PolicyCallSeconds)
	t.bump(func(s *Stats) { s.PolicyCalls++ })
	if t.metrics != nil {
		t.metrics.policyCalls.Inc()
	}
	var adv *policy.TransferAdvice
	var err error
	if ca, ok := t.cfg.Advisor.(ContextAdvisor); ok {
		adv, err = ca.AdviseTransfersCtx(ctx, specs)
	} else {
		adv, err = t.cfg.Advisor.AdviseTransfers(specs)
	}
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
			if t.metrics != nil {
				t.metrics.sessions.Inc()
			}
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
		pair := policy.HostPair{Src: tr.SourceHost, Dst: tr.DestHost}
		if err := t.cfg.Fabric.Transfer(p, tr.SourceURL, tr.DestURL, tr.SizeBytes, tr.Streams); err != nil {
			failedIDs = append(failedIDs, tr.ID)
			t.bump(func(s *Stats) { s.TransfersFailed++ })
			t.observeTransfer(pair, tr.SizeBytes, 0, true)
			continue
		}
		completed = append(completed, tr.ID)
		timings = append(timings, policy.TransferTiming{TransferID: tr.ID, Seconds: p.Now() - start})
		t.bump(func(s *Stats) {
			s.TransfersExecuted++
			s.BytesMoved += tr.SizeBytes
		})
		t.observeTransfer(pair, tr.SizeBytes, p.Now()-start, false)
	}

	if len(completed) > 0 || len(failedIDs) > 0 {
		p.Sleep(t.cfg.PolicyCallSeconds)
		t.bump(func(s *Stats) { s.PolicyCalls++ })
		if t.metrics != nil {
			t.metrics.policyCalls.Inc()
		}
		report := policy.CompletionReport{
			TransferIDs: completed,
			FailedIDs:   failedIDs,
			Timings:     timings,
		}
		// The key is minted before the first attempt so a backlog drain
		// after a lost response reuses it and the report applies once.
		e := backlogEntry{ctx: ctx, key: t.nextBacklogKey(workflowID), workflowID: workflowID, transfers: &report}
		if rerr := t.sendReport(e); rerr != nil {
			if !t.breakerEnabled() {
				return fmt.Errorf("transfer: completion report: %w", rerr)
			}
			// The transfers happened; only the bookkeeping is stuck. Queue
			// it for reconciliation instead of failing the staging task. A
			// shed report (429) was never applied, so it queues the same
			// way but without counting toward the breaker.
			if isBusy(rerr) {
				t.policyBusy()
			} else {
				t.policyFailed(p.Now())
			}
			t.enqueueBacklog(e)
		} else {
			t.policySucceeded(p, workflowID)
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
	if t.cfg.Advisor == nil {
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
		t.mu.Lock()
		t.seq++
		reqID := fmt.Sprintf("%s-c%06d", workflowID, t.seq)
		t.mu.Unlock()
		specs = append(specs, policy.CleanupSpec{RequestID: reqID, WorkflowID: workflowID, FileURL: u})
	}
	if t.breakerEnabled() && t.breakerOpen(p.Now()) {
		// Fail safe, not open: without policy knowledge a staged file may
		// still be in use by another workflow, so deletions are deferred
		// rather than risked.
		t.bump(func(s *Stats) { s.CleanupsDeferred += int64(len(urls)) })
		return nil
	}
	batch := obs.NewSpanContext()
	ctx := obs.ContextWithSpan(context.Background(), batch)
	p.Sleep(t.cfg.PolicyCallSeconds)
	t.bump(func(s *Stats) { s.PolicyCalls++ })
	if t.metrics != nil {
		t.metrics.policyCalls.Inc()
	}
	var adv *policy.CleanupAdvice
	var err error
	if ca, ok := t.cfg.Advisor.(ContextAdvisor); ok {
		adv, err = ca.AdviseCleanupsCtx(ctx, specs)
	} else {
		adv, err = t.cfg.Advisor.AdviseCleanups(specs)
	}
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
		p.Sleep(t.cfg.PolicyCallSeconds)
		t.bump(func(s *Stats) { s.PolicyCalls++ })
		if t.metrics != nil {
			t.metrics.policyCalls.Inc()
		}
		report := policy.CleanupReport{CleanupIDs: done}
		e := backlogEntry{ctx: ctx, key: t.nextBacklogKey(workflowID), workflowID: workflowID, cleanups: &report}
		if rerr := t.sendReport(e); rerr != nil {
			if !t.breakerEnabled() {
				return fmt.Errorf("transfer: cleanup report: %w", rerr)
			}
			if isBusy(rerr) {
				t.policyBusy()
			} else {
				t.policyFailed(p.Now())
			}
			t.enqueueBacklog(e)
		} else {
			t.policySucceeded(p, workflowID)
		}
	}
	return nil
}
