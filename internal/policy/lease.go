package policy

import (
	"context"
	"fmt"
	"math"
	"sort"

	"policyflow/internal/obs"
	"policyflow/internal/rules"
)

// Lease is the working-memory fact recording that a workflow is alive and
// owns state in Policy Memory: in-progress transfers, staged-file
// reference counts, in-progress cleanups. AdviseTransfers and
// AdviseCleanups register (or extend) the calling workflow's lease;
// RenewLease extends it explicitly. A lease whose deadline passes the
// service's logical clock is expired by AdvanceClock, which reclaims the
// dead workflow's holdings.
type Lease struct {
	// Owner is the workflow ID holding the lease.
	Owner string
	// Deadline is the logical-clock time at which the lease expires.
	Deadline float64
}

// LeaseExpired is the event fact AdvanceClock inserts for each lease whose
// deadline passed; the reclamation rules consume it.
type LeaseExpired struct {
	Owner string
}

// Lease reclamation salience band: strictly above every completion rule
// (salClusterRelease = 210) so an expiry pass settles all of a dead
// workflow's holdings — cluster shares first, then pair ledgers, then
// reference counts and cleanups — before anything else runs.
const (
	salLeaseReleaseCluster = 236
	salLeaseFailTransfer   = 234
	salLeaseDetachOwner    = 232
	salLeaseDropCleanup    = 230
	salLeaseGC             = 220
)

// LeaseOp is the logged payload of a RenewLease call.
type LeaseOp struct {
	WorkflowID string `json:"workflowId" xml:"workflowId"`
}

// ClockOp is the logged payload of an AdvanceClock call.
type ClockOp struct {
	Now float64 `json:"now" xml:"now"`
}

// LeaseStatus reports one lease after registration or renewal.
type LeaseStatus struct {
	WorkflowID string  `json:"workflowId" xml:"workflowId"`
	Deadline   float64 `json:"deadline" xml:"deadline"`
	TTLSeconds float64 `json:"ttlSeconds" xml:"ttlSeconds"`
}

// ClockAdvance reports the effect of an AdvanceClock call: the clock value
// now in force, the owners whose leases expired (sorted), and how many
// in-progress transfers the expiry pass reclaimed.
type ClockAdvance struct {
	Now float64 `json:"now" xml:"now"`
	// Expired lists the workflow IDs whose leases expired, sorted.
	Expired []string `json:"expired,omitempty" xml:"expired>owner,omitempty"`
	// ReclaimedTransfers counts in-progress transfers marked failed and
	// released by this expiry pass.
	ReclaimedTransfers int `json:"reclaimedTransfers,omitempty" xml:"reclaimedTransfers,omitempty"`
	// ReclaimedStreams counts the parallel streams those transfers held.
	ReclaimedStreams int `json:"reclaimedStreams,omitempty" xml:"reclaimedStreams,omitempty"`
}

// LeaseInfo is the externally visible state of one active lease.
type LeaseInfo struct {
	WorkflowID string  `json:"workflowId" xml:"workflowId"`
	Deadline   float64 `json:"deadline" xml:"deadline"`
	// HeldStreams sums the allocated streams of the owner's in-progress
	// transfers.
	HeldStreams int `json:"heldStreams" xml:"heldStreams"`
	// InProgress counts the owner's in-progress transfers.
	InProgress int `json:"inProgress" xml:"inProgress"`
}

// LeaseList is the response of the lease listing endpoint.
type LeaseList struct {
	// Now is the service's logical clock.
	Now float64 `json:"now" xml:"now"`
	// TTLSeconds is the configured lease TTL (0 = leases disabled).
	TTLSeconds float64     `json:"ttlSeconds" xml:"ttlSeconds"`
	Leases     []LeaseInfo `json:"leases,omitempty" xml:"leases>lease,omitempty"`
}

// leaseRules reclaims a dead workflow's holdings when its lease expires.
// The rules consume LeaseExpired event facts inserted by AdvanceClock and
// run strictly before the completion band, mirroring the paper's
// completion processing but for an owner that will never report: the dead
// workflow's in-progress transfers are dropped and their streams released
// (cluster shares included, for the balanced allocator), its reference
// counts are removed wholesale so staged files it alone pinned become
// cleanable, and its in-progress cleanups are forgotten so surviving
// workflows may re-issue them. Dropping the Transfer facts also lifts
// in-progress duplicate suppression, so survivors re-stage orphaned files.
func leaseRules() []*rules.Rule {
	return []*rules.Rule{
		// Release the balanced allocator's per-(pair, cluster) share before
		// the transfer fact disappears (same ordering contract as
		// balanced-release-cluster vs the completion rules).
		{
			Name:     "lease-expired-release-cluster",
			Salience: salLeaseReleaseCluster,
			NoLoop:   true,
			When: []rules.Pattern{
				rules.Match[*LeaseExpired]("e", nil),
				rules.MatchOn("t", "owner", keyExpiredOwner, func(b rules.Bindings, t *Transfer) bool {
					e := b.Get("e").(*LeaseExpired)
					return t.State == TransferInProgress && t.WorkflowID == e.Owner
				}),
				rules.MatchOn("cl", "paircluster", keyTransferCluster, func(b rules.Bindings, cl *ClusterLedger) bool {
					t := b.Get("t").(*Transfer)
					return cl.Pair == t.Pair && cl.ClusterID == t.ClusterID
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				cl := ctx.Get("cl").(*ClusterLedger)
				cl.Allocated -= t.AllocatedStreams
				if cl.Allocated < 0 {
					cl.Allocated = 0
				}
				ctx.Update(cl)
			},
		},
		// Treat each of the dead workflow's in-progress transfers as failed:
		// release its streams and drop it. Unlike transfer-failed, the
		// reference count is NOT decremented here — lease-expired-detach-owner
		// removes the owner's entire usage in one step, and doing both would
		// double-count.
		{
			Name:     "lease-expired-fail-transfer",
			Salience: salLeaseFailTransfer,
			When: []rules.Pattern{
				rules.Match[*LeaseExpired]("e", nil),
				rules.MatchOn("t", "owner", keyExpiredOwner, func(b rules.Bindings, t *Transfer) bool {
					e := b.Get("e").(*LeaseExpired)
					return t.State == TransferInProgress && t.WorkflowID == e.Owner
				}),
				rules.MatchOn("l", "pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				l := ctx.Get("l").(*StreamLedger)
				l.Allocated -= t.AllocatedStreams
				if l.Allocated < 0 {
					l.Allocated = 0
				}
				ctx.Update(l)
				ctx.Retract(t)
			},
		},
		// Remove the dead workflow from every resource it was using. This is
		// the whole of its reference counting, whatever the per-workflow
		// count was, so files it alone pinned become cleanable and files it
		// shared stay protected by the survivors' counts.
		{
			Name:     "lease-expired-detach-owner",
			Salience: salLeaseDetachOwner,
			NoLoop:   true,
			When: []rules.Pattern{
				rules.Match[*LeaseExpired]("e", nil),
				rules.Match("r", func(b rules.Bindings, r *Resource) bool {
					e := b.Get("e").(*LeaseExpired)
					_, uses := r.Users[e.Owner]
					return uses
				}),
			},
			Then: func(ctx *rules.Context) {
				e := ctx.Get("e").(*LeaseExpired)
				r := ctx.Get("r").(*Resource)
				delete(r.Users, e.Owner)
				ctx.Update(r)
			},
		},
		// Forget the dead workflow's in-progress cleanups so duplicate
		// suppression lifts and a surviving workflow can re-issue the
		// deletion. The resource fact is kept: whether the dead client
		// deleted the file before crashing is unknowable, and keeping the
		// conservative record only costs a re-issued cleanup.
		{
			Name:     "lease-expired-drop-cleanup",
			Salience: salLeaseDropCleanup,
			When: []rules.Pattern{
				rules.Match[*LeaseExpired]("e", nil),
				rules.MatchOn("c", "owner", keyExpiredOwner, func(b rules.Bindings, c *Cleanup) bool {
					e := b.Get("e").(*LeaseExpired)
					return c.State == CleanupInProgress && c.WorkflowID == e.Owner
				}),
			},
			Then: func(ctx *rules.Context) {
				ctx.Retract(ctx.Get("c"))
			},
		},
		// Garbage-collect the expiry event once every reclamation rule above
		// has had its chance to fire.
		{
			Name:     "lease-expired-gc",
			Salience: salLeaseGC,
			When: []rules.Pattern{
				rules.Match[*LeaseExpired]("e", nil),
			},
			Then: func(ctx *rules.Context) { ctx.Retract(ctx.Get("e")) },
		},
	}
}

// renewLeasesLocked registers or extends a lease for each distinct
// non-empty workflow ID, at deadline = logical clock + LeaseTTL. Callers
// hold s.mu. The deadlines derive only from logged inputs (the specs) and
// logged clock state, so WAL replay reproduces them exactly.
func (s *Service) renewLeasesLocked(owners []string) {
	if s.cfg.LeaseTTL <= 0 {
		return
	}
	seen := make(map[string]bool, len(owners))
	for _, owner := range owners {
		if owner == "" || seen[owner] {
			continue
		}
		seen[owner] = true
		deadline := s.clock + s.cfg.LeaseTTL
		if l, ok := rules.First(s.session, func(l *Lease) bool { return l.Owner == owner }); ok {
			if deadline > l.Deadline {
				l.Deadline = deadline
				s.session.Update(l)
			}
		} else {
			s.session.Insert(&Lease{Owner: owner, Deadline: deadline})
		}
		s.leaseRenewals++
		if s.metrics != nil {
			s.metrics.leaseRenewals.Inc()
		}
	}
}

// transferOwners extracts the workflow IDs of a transfer batch, in batch
// order (renewLeasesLocked dedupes).
func transferOwners(specs []TransferSpec) []string {
	owners := make([]string, 0, len(specs))
	for _, spec := range specs {
		owners = append(owners, spec.WorkflowID)
	}
	return owners
}

// cleanupOwners extracts the workflow IDs of a cleanup batch.
func cleanupOwners(specs []CleanupSpec) []string {
	owners := make([]string, 0, len(specs))
	for _, spec := range specs {
		owners = append(owners, spec.WorkflowID)
	}
	return owners
}

// RenewLease extends (or creates) the workflow's lease to logical clock +
// LeaseTTL. It is a WAL-logged mutation: replicas replaying the log arrive
// at the identical deadline. Returns ErrInvalidRequest when leases are
// disabled (LeaseTTL = 0) or the workflow ID is empty.
func (s *Service) RenewLease(workflowID string) (*LeaseStatus, error) {
	return execAs[*LeaseStatus](s, context.Background(), OpRenewLease, LeaseOp{WorkflowID: workflowID})
}

func validateLease(op LeaseOp) error {
	if op.WorkflowID == "" {
		return fmt.Errorf("%w: workflow ID is required", ErrInvalidRequest)
	}
	return nil
}

// renewLeaseLocked is the apply function of renew_lease.
func (s *Service) renewLeaseLocked(ctx context.Context, op LeaseOp) (status *LeaseStatus, seq uint64, _ *DecisionRecord, err error) {
	if s.cfg.LeaseTTL <= 0 {
		err = fmt.Errorf("%w: leases are disabled (LeaseTTL is 0)", ErrInvalidRequest)
		return
	}
	if seq, err = s.appendLog(ctx, OpRenewLease, op); err != nil {
		return
	}
	s.renewLeasesLocked([]string{op.WorkflowID})
	l, _ := rules.First(s.session, func(l *Lease) bool { return l.Owner == op.WorkflowID })
	return &LeaseStatus{WorkflowID: op.WorkflowID, Deadline: l.Deadline, TTLSeconds: s.cfg.LeaseTTL}, seq, nil, nil
}

// AdvanceClock moves the service's logical clock forward to now and runs
// the lease-expiry pass: each lease whose deadline has passed is removed, a
// LeaseExpired event is inserted for its owner, and the reclamation rules
// fire. The clock is part of Policy Memory — the service itself never
// reads wall time — so expiry is driven entirely by the caller (a ticker
// in the server binary, simulated time in tests) and replays
// deterministically from the WAL. Calls that do not move the clock
// forward are no-ops and are not logged.
func (s *Service) AdvanceClock(now float64) (*ClockAdvance, error) {
	return execAs[*ClockAdvance](s, context.Background(), OpAdvanceClock, ClockOp{Now: now})
}

func validateClock(op ClockOp) error {
	if math.IsNaN(op.Now) || math.IsInf(op.Now, 0) || op.Now < 0 {
		return fmt.Errorf("%w: clock value %v is not a valid time", ErrInvalidRequest, op.Now)
	}
	return nil
}

// advanceClockLocked is the apply function of advance_clock.
func (s *Service) advanceClockLocked(ctx context.Context, op ClockOp) (adv *ClockAdvance, seq uint64, _ *DecisionRecord, err error) {
	now := op.Now
	if now <= s.clock {
		// Monotonic clamp: late or duplicate ticks change nothing, on every
		// replica alike, so there is nothing to log.
		return &ClockAdvance{Now: s.clock}, 0, nil, nil
	}
	if seq, err = s.appendLog(ctx, OpAdvanceClock, op); err != nil {
		return
	}
	s.clock = now

	adv = &ClockAdvance{Now: now}
	// O(active leases) scan, entirely off the advise hot path.
	var expired []*Lease
	for _, l := range rules.FactsOf[*Lease](s.session) {
		if l.Deadline <= now {
			expired = append(expired, l)
		}
	}
	if len(expired) == 0 {
		return
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].Owner < expired[j].Owner })
	for _, l := range expired {
		adv.Expired = append(adv.Expired, l.Owner)
		s.leasesExpired++
		if s.metrics != nil {
			s.metrics.leasesExpired.Inc()
		}
		owner := l.Owner
		for _, t := range rules.FactsOf[*Transfer](s.session) {
			if t.State != TransferInProgress || t.WorkflowID != owner {
				continue
			}
			adv.ReclaimedTransfers++
			adv.ReclaimedStreams += t.AllocatedStreams
			s.reclaimedTransfers++
			if s.metrics != nil {
				s.metrics.reclaimed.Inc()
			}
			s.emit(obs.Event{
				Type:       obs.EventReclaimed,
				TransferID: t.ID,
				RequestID:  t.RequestID,
				WorkflowID: t.WorkflowID,
				GroupID:    t.GroupID,
				SourceHost: t.Pair.Src,
				DestHost:   t.Pair.Dst,
				SizeBytes:  t.SizeBytes,
				Streams:    t.AllocatedStreams,
				Reason:     "lease-expired",
			})
		}
		s.emit(obs.Event{Type: obs.EventLeaseExpired, WorkflowID: owner})
		s.session.Retract(l)
		s.session.Insert(&LeaseExpired{Owner: owner})
	}
	err = s.fireRules(ctx)
	return
}

// Leases reports the active leases with the state each owner holds: the
// streams and in-progress transfer count that would be reclaimed if the
// lease expired. Sorted by owner.
func (s *Service) Leases() *LeaseList {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &LeaseList{Now: s.clock, TTLSeconds: s.cfg.LeaseTTL}
	held := make(map[string]int)
	count := make(map[string]int)
	for _, t := range rules.FactsOf[*Transfer](s.session) {
		if t.State == TransferInProgress {
			held[t.WorkflowID] += t.AllocatedStreams
			count[t.WorkflowID]++
		}
	}
	for _, l := range rules.FactsOf[*Lease](s.session) {
		out.Leases = append(out.Leases, LeaseInfo{
			WorkflowID:  l.Owner,
			Deadline:    l.Deadline,
			HeldStreams: held[l.Owner],
			InProgress:  count[l.Owner],
		})
	}
	sort.Slice(out.Leases, func(i, j int) bool { return out.Leases[i].WorkflowID < out.Leases[j].WorkflowID })
	return out
}
