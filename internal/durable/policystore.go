package durable

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"time"

	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// PolicyStore makes a *policy.Service durable: it implements
// policy.MutationLog over a Store, recovers the service from the data
// directory on open, and snapshots Policy Memory with the existing
// StateDump encoding.
type PolicyStore struct {
	svc   *policy.Service
	store *Store
	m     *obs.WALMetrics
}

// SnapshotInfo describes one written snapshot.
type SnapshotInfo struct {
	XMLName xml.Name `json:"-" xml:"snapshot"`
	// Seq is the log position the snapshot covers.
	Seq uint64 `json:"seq" xml:"seq"`
	// Bytes is the encoded state size.
	Bytes int `json:"bytes" xml:"bytes"`
	// DurationSeconds is the end-to-end snapshot time (export, encode,
	// fsync, rename, WAL compaction).
	DurationSeconds float64 `json:"durationSeconds" xml:"durationSeconds"`
}

// OpenPolicyStore opens dir, recovers svc from it — the latest valid
// snapshot is imported, then the WAL tail is replayed through the
// service's own operations, tolerating a torn final record — and attaches
// the store as the service's mutation log, so every subsequent
// advise/report/threshold/cleanup decision is persisted before it is
// acknowledged. The service must be freshly constructed with the same
// configuration the logged operations ran under: configuration is not
// logged, replay determinism supplies the rest.
func OpenPolicyStore(dir string, svc *policy.Service, opts Options) (*PolicyStore, RecoveryStats, error) {
	restore := func(state []byte) error {
		d, err := policy.DecodeStateDump(state)
		if err != nil {
			return fmt.Errorf("decode state dump: %w", err)
		}
		if d == nil {
			d = new(policy.StateDump) // a null state restores empty, as it always has
		}
		_, err = svc.Execute(context.Background(), policy.OpImportState, d)
		return err
	}
	apply := func(rec Record) error {
		return svc.ApplyLogged(rec.Op, rec.Data)
	}
	st, stats, err := Open(dir, opts, restore, apply)
	if err != nil {
		return nil, stats, err
	}
	ps := &PolicyStore{svc: svc, store: st, m: opts.Metrics}
	svc.SetMutationLog(ps)
	return ps, stats, nil
}

// Append implements policy.MutationLog. An import_state replaces Policy
// Memory wholesale, so it is installed as a snapshot at the next log
// position rather than logged as a state-sized record (see Store.Install);
// the dump's bytes are written as it was decoded from them.
func (ps *PolicyStore) Append(op string, payload any) (uint64, error) {
	if d, ok := payload.(*policy.StateDump); ok && op == policy.OpImportState {
		state, err := d.JSON()
		if err != nil {
			return 0, fmt.Errorf("durable: encode %s payload: %w", op, err)
		}
		return ps.store.Install(d.Epoch, state)
	}
	return ps.store.Append(op, payload)
}

// Sync implements policy.MutationLog.
func (ps *PolicyStore) Sync(seq uint64) error { return ps.store.Sync(seq) }

// SnapshotNow exports Policy Memory at its current log position, writes
// it as a snapshot and compacts the WAL behind it.
func (ps *PolicyStore) SnapshotNow() (SnapshotInfo, error) {
	start := time.Now()
	dump, seq := ps.svc.ExportStateAt(ps.store.LastSeq)
	state, err := json.Marshal(dump)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("durable: encode snapshot: %w", err)
	}
	if err := ps.store.WriteSnapshot(seq, dump.Epoch, state); err != nil {
		return SnapshotInfo{}, err
	}
	info := SnapshotInfo{Seq: seq, Bytes: len(state),
		DurationSeconds: time.Since(start).Seconds()}
	if ps.m != nil {
		ps.m.SnapshotSeconds.Observe(info.DurationSeconds)
	}
	return info, nil
}

// Archive bundles the latest snapshot with the WAL records after it — the
// transportable form a replica resync ships instead of a full live dump.
func (ps *PolicyStore) Archive() (*Archive, error) { return ps.store.ArchiveTail() }

// ArchiveAfter returns only the records after seq after when the log still
// holds them all, and the full Archive otherwise (see Store.ArchiveAfter).
func (ps *PolicyStore) ArchiveAfter(after uint64) (*Archive, error) {
	return ps.store.ArchiveAfter(after)
}

// LastSeq returns the log position of the last persisted mutation.
func (ps *PolicyStore) LastSeq() uint64 { return ps.store.LastSeq() }

// Close detaches the store from the service and closes the log, flushing
// outstanding records first.
func (ps *PolicyStore) Close() error {
	ps.svc.SetMutationLog(nil)
	return ps.store.Close()
}
