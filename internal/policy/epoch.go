package policy

import "context"

// The fencing epoch is the failover subsystem's single source of truth for
// "who may write": a monotonically increasing counter moved only by the
// WAL-logged bump_epoch mutation. Promotion bumps it on the new primary's
// own log before the new primary serves a single write, and the HTTP layer
// rejects mutations from any server whose epoch is behind a client's —
// so a deposed primary can never acknowledge a write after promotion.
// The epoch rides in StateDump (and hence snapshots, archives and
// replication), so standbys and resynced replicas adopt it with the rest
// of Policy Memory.

// EpochOp is the logged payload of a BumpEpoch mutation.
type EpochOp struct {
	Epoch uint64 `json:"epoch"`
}

// Epoch returns the service's current fencing epoch.
func (s *Service) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// BumpEpoch raises the fencing epoch to target through the write-ahead
// log. Like bundle activation, it is idempotent without logging: a target
// at or below the current epoch is a no-op (epochs only move forward, and
// replaying a stale bump must not re-log it). The returned value is the
// epoch in force afterwards.
func (s *Service) BumpEpoch(target uint64) (uint64, error) {
	return Call[uint64](context.Background(), s, OpBumpEpoch, EpochOp{Epoch: target})
}

// bumpEpochLocked is the apply function of bump_epoch.
func (s *Service) bumpEpochLocked(ctx context.Context, op EpochOp) (epoch uint64, seq uint64, _ *DecisionRecord, err error) {
	if op.Epoch <= s.epoch {
		return s.epoch, 0, nil, nil
	}
	if seq, err = s.appendLog(ctx, OpBumpEpoch, op); err != nil {
		return
	}
	s.epoch = op.Epoch
	return s.epoch, seq, nil, nil
}
