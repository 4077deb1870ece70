package policyhttp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// ReplicatedClient is the workflow side of the paper's future-work
// reliability strategy ("strategies for distribution and replication of
// policy logic to improve reliability"): a leader-following failover client
// over an epoch-fenced primary/standby pair. It sends each call to the
// replica that last acknowledged one and returns on the first ack; it does
// not replicate anything itself. The standby keeps its Policy Memory warm
// by pulling the primary's log (StandbySyncer), a promotion moves
// leadership (POST /v1/promote), and a lagging, recovered or deposed server
// repairs itself the same way — never through this client, which keeps no
// memory of which replica failed last time.
//
// ReplicatedClient has Client's call path, Do, and the Advisor interface
// (with its keyed-report extension) the transfer tool uses, so a
// Pegasus-side deployment needs no changes to gain failover.
type ReplicatedClient struct {
	replicas []*Client

	// mu guards the fields below; it is never held across a network call,
	// so concurrent callers overlap.
	mu sync.Mutex
	// leader is the replica index that last acknowledged a call (-1 =
	// unknown): the hint tried first, cleared when that replica answers 412.
	leader int
	// epoch is the highest fencing epoch observed across all replicas;
	// it is pushed into the per-replica client before each attempt so a
	// deposed primary learns it has been passed and self-fences.
	epoch uint64
	// lastAckEpoch/lastAckReplica record which epoch (and which replica)
	// acknowledged the most recent successful call — the faultsim harness
	// asserts acks only ever come from the expected primary.
	lastAckEpoch   uint64
	lastAckReplica int
}

// ErrNoReplicas is returned when no replica answered: every attempt ended
// in a transport error or a 5xx.
var ErrNoReplicas = errors.New("policyhttp: no replica answered")

// ErrNoPrimary is returned when at least one replica was reachable but
// every reachable replica refused the mutation with the epoch fence (412):
// the cluster is mid-failover with no server currently willing to accept
// writes. No replica acknowledged the mutation — retry once a promotion
// lands.
var ErrNoPrimary = errors.New("policyhttp: no replica is primary")

// NewReplicatedClient wraps one client per replica endpoint. At least one
// is required.
func NewReplicatedClient(replicas ...*Client) (*ReplicatedClient, error) {
	if len(replicas) == 0 {
		return nil, errors.New("policyhttp: replicated client needs at least one replica")
	}
	return &ReplicatedClient{replicas: replicas, leader: -1, lastAckReplica: -1}, nil
}

// Leader returns the index of the replica that last acknowledged a call,
// -1 when unknown.
func (rc *ReplicatedClient) Leader() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.leader
}

// LastAckEpoch returns the epoch stamped on the most recent successful
// call's response (0 before any, or when replicas run unfenced).
func (rc *ReplicatedClient) LastAckEpoch() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lastAckEpoch
}

// LastAckReplica returns the replica index that acknowledged the most
// recent successful call, -1 before any.
func (rc *ReplicatedClient) LastAckReplica() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lastAckReplica
}

// Do runs one logged op (see Client.Do) on the current primary: the
// hinted leader first, then the rest in index order, returning on the
// first acknowledgement. What each answer means:
//
//   - ack: done; the replica becomes the leader hint.
//   - 412: the replica is a healthy standby (or a primary that just
//     learned it was deposed). Drop the hint if it pointed there and try
//     the next replica.
//   - transport error or 5xx: try the next replica and remember nothing —
//     the same replica is tried again on the next call.
//   - any other 4xx, 429 included: the replica answered; return it. A
//     rejection is about the request and a shed is about load, and neither
//     is improved by asking a standby.
//
// With nothing acknowledged the error is ErrNoPrimary if any replica
// fenced the call, ErrNoReplicas otherwise.
//
// A caller's idempotency key (withIdempotencyKey) travels to every
// replica tried; without one, each per-replica Client mints its own key
// and reuses it across that client's retries only. Either way a re-route
// is exactly-once, because a 412 is issued before the mutation is applied
// and never enters the replay cache: only the one replica that
// acknowledges has applied anything. A call that fails after a lost
// response may still have been applied by the replica that lost it; a
// caller that retries it under the same key is answered from that
// replica's replay cache instead of applying it again.
//
// Every replica attempt (and every retry within each attempt) joins the
// trace in ctx, or one minted for the call, so a fault episode spanning
// failover is reconstructable under one trace ID. The lock is held only
// to read the hint and to record the outcome.
func (rc *ReplicatedClient) Do(ctx context.Context, op string, payload any) (any, error) {
	if _, ok := obs.SpanFromContext(ctx); !ok {
		ctx = obs.ContextWithSpan(ctx, obs.NewSpanContext())
	}
	rc.mu.Lock()
	hint, epoch := rc.leader, rc.epoch
	rc.mu.Unlock()

	order := make([]int, 0, len(rc.replicas))
	if hint >= 0 {
		order = append(order, hint)
	}
	for i := range rc.replicas {
		if i != hint {
			order = append(order, i)
		}
	}
	acked, sawFenced, hintFenced := -1, false, false
	var result any
	var answered, lastErr error
walk:
	for _, i := range order {
		c := rc.replicas[i]
		// Spread the newest epoch before the call: the request header is
		// what deposes a stale primary.
		c.RaiseEpoch(epoch)
		r, err := c.Do(ctx, op, payload)
		if e := c.Epoch(); e > epoch {
			epoch = e
		}
		switch {
		case err == nil:
			result, acked = r, i
			break walk
		case IsFenced(err):
			sawFenced = true
			hintFenced = hintFenced || i == hint
		case IsRejection(err):
			answered = err
			break walk
		default:
			lastErr = err
		}
	}

	rc.mu.Lock()
	if epoch > rc.epoch {
		rc.epoch = epoch
	}
	if acked >= 0 {
		rc.leader, rc.lastAckReplica = acked, acked
		rc.lastAckEpoch = rc.replicas[acked].Epoch()
	} else if hintFenced && rc.leader == hint {
		rc.leader = -1
	}
	rc.mu.Unlock()

	switch {
	case acked >= 0:
		return result, nil
	case answered != nil:
		return nil, answered
	}
	sentinel := ErrNoReplicas
	if sawFenced {
		sentinel = ErrNoPrimary
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: last error: %v", sentinel, lastErr)
	}
	return nil, sentinel
}

// AdviseTransfers implements the Advisor interface with failover.
func (rc *ReplicatedClient) AdviseTransfers(specs []policy.TransferSpec) (*policy.TransferAdvice, error) {
	return as[*policy.TransferAdvice](rc.Do(context.Background(), policy.OpAdviseTransfers, specs))
}

// ReportTransfers implements the Advisor interface with failover.
func (rc *ReplicatedClient) ReportTransfers(report policy.CompletionReport) (*policy.ReportAck, error) {
	return as[*policy.ReportAck](rc.Do(context.Background(), policy.OpReportTransfers, report))
}

// AdviseCleanups implements the Advisor interface with failover.
func (rc *ReplicatedClient) AdviseCleanups(specs []policy.CleanupSpec) (*policy.CleanupAdvice, error) {
	return as[*policy.CleanupAdvice](rc.Do(context.Background(), policy.OpAdviseCleanups, specs))
}

// ReportCleanups implements the Advisor interface with failover.
func (rc *ReplicatedClient) ReportCleanups(report policy.CleanupReport) (*policy.ReportAck, error) {
	return as[*policy.ReportAck](rc.Do(context.Background(), policy.OpReportCleanups, report))
}

// ReportTransfersKeyedCtx implements transfer.KeyedContextReporter: the
// caller's key reaches every replica, so a report re-sent from the PTT's
// backlog after its responses were lost is applied once.
func (rc *ReplicatedClient) ReportTransfersKeyedCtx(ctx context.Context, key string, report policy.CompletionReport) (*policy.ReportAck, error) {
	return as[*policy.ReportAck](rc.Do(withIdempotencyKey(ctx, key), policy.OpReportTransfers, report))
}

// ReportCleanupsKeyedCtx implements transfer.KeyedContextReporter.
func (rc *ReplicatedClient) ReportCleanupsKeyedCtx(ctx context.Context, key string, report policy.CleanupReport) (*policy.ReportAck, error) {
	return as[*policy.ReportAck](rc.Do(withIdempotencyKey(ctx, key), policy.OpReportCleanups, report))
}

// RenewLease renews the workflow's lease on the primary (the PTT's
// transfer.LeaseRenewer).
func (rc *ReplicatedClient) RenewLease(workflowID string) (*policy.LeaseStatus, error) {
	return as[*policy.LeaseStatus](rc.Do(context.Background(), policy.OpRenewLease, policy.LeaseOp{WorkflowID: workflowID}))
}
