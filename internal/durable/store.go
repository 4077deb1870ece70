package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"

	"policyflow/internal/canon"
	"policyflow/internal/obs"
)

// keepSnapshots is how many snapshot generations a store retains: the
// latest plus one fallback.
const keepSnapshots = 2

// Options configures a Store.
type Options struct {
	// Fsync makes Sync wait for fsync(2) before reporting a record
	// durable (group-committed across concurrent callers). When false,
	// records are flushed to the OS only — they survive a process crash
	// but not a machine crash.
	Fsync bool
	// Metrics, when non-nil, receives the WAL and snapshot series.
	Metrics *obs.WALMetrics
	// Tracer, when non-nil, receives "wal.fsync" spans from group-commit
	// leaders (see walOptions.Tracer).
	Tracer obs.Tracer
	// WriteFault is a fault-injection hook for tests and harnesses: when
	// non-nil it is consulted before every append, and a non-nil error
	// fails the append as a disk-write error would — before any state
	// change is acknowledged. Leave nil in production.
	WriteFault func(op string) error
}

// RecoveryStats describes what Open found in the data directory.
type RecoveryStats struct {
	// SnapshotSeq is the sequence number of the snapshot restored, 0 when
	// the store started from the log alone.
	SnapshotSeq uint64
	// Replayed is the number of WAL records applied after the snapshot.
	Replayed int
	// LastSeq is the log position after recovery.
	LastSeq uint64
}

// Store combines the segmented WAL with snapshot files in one data
// directory. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	wal  *wal

	mu      sync.Mutex // serializes snapshot/compaction
	snapSeq uint64
}

// Archive is a transportable recovery bundle: the latest snapshot payload
// plus the WAL records after it (a full archive), or only the records after
// a position the requester already holds (a delta). Shipping an archive
// instead of a live state dump lets a peer resync without pausing the
// donor's Policy Memory.
type Archive struct {
	// Delta marks a delta archive: no snapshot, and Tail continues from
	// the position the requester asked after (see ArchiveAfter).
	Delta bool `json:"delta,omitempty"`
	// SnapshotSeq is the log position the snapshot covers (0 = none).
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// Epoch is the fencing epoch recorded in the snapshot header (0 when
	// no snapshot exists or it predates epochs). The tail may raise it
	// further via bump_epoch records.
	Epoch uint64 `json:"epoch,omitempty"`
	// Snapshot is the raw snapshot payload (a policy.StateDump in JSON),
	// absent when the donor has not snapshotted yet.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	// Tail is the mutation records after the snapshot, in order.
	Tail []Record `json:"tail,omitempty"`
}

// JSON returns a as one JSON document and a newline, in parts — for a
// compact Snapshot, the bytes json.NewEncoder(w).Encode(a) writes — without
// re-scanning the state-sized Snapshot: the other fields are encoded, and
// the snapshot goes out as stored. The parts' total length is known before
// any is written, so a donor can announce it.
func (a *Archive) JSON() (net.Buffers, error) {
	rest := *a
	rest.Snapshot = nil
	doc, err := json.Marshal(&rest)
	if err != nil {
		return nil, err
	}
	doc = append(doc, '\n')
	if a.Snapshot == nil {
		return net.Buffers{doc}, nil
	}
	// The fields before the snapshot are numbers and a bool, so the first
	// `,"tail":` — or else the closing brace — is where it goes.
	at := bytes.Index(doc, []byte(`,"tail":`))
	if at < 0 {
		at = len(doc) - len("}\n")
	}
	return net.Buffers{doc[:at], []byte(`,"snapshot":`), a.Snapshot, doc[at:]}, nil
}

var archiveFields = []canon.Field[Archive]{
	{Name: "delta", Decode: func(d *canon.Decoder, a *Archive) { a.Delta = d.Bool() }},
	{Name: "snapshotSeq", Decode: func(d *canon.Decoder, a *Archive) { a.SnapshotSeq = d.Uint64() }},
	{Name: "epoch", Decode: func(d *canon.Decoder, a *Archive) { a.Epoch = d.Uint64() }},
	{Name: "snapshot", Decode: func(d *canon.Decoder, a *Archive) { a.Snapshot = d.Raw() }},
	{Name: "tail", Decode: func(d *canon.Decoder, a *Archive) { a.Tail = canon.Objects(d, recordFields) }},
}

func decodeArchiveFields(d *canon.Decoder, a *Archive) { canon.Object(d, a, archiveFields) }

// DecodeArchive decodes an archive document in one pass (see package
// canon). Snapshot and the records' Data alias data when it is canonical,
// so the state-sized snapshot is neither copied nor decoded here.
func DecodeArchive(data []byte) (*Archive, error) {
	var a Archive
	if err := canon.Unmarshal(data, &a, decodeArchiveFields); err != nil {
		return nil, err
	}
	return &a, nil
}

// Open opens (creating if needed) the store in dir and recovers: restore
// receives the latest valid snapshot payload (when one exists), then apply
// receives every WAL record after it, in order. A torn final record — the
// signature of a mid-write crash — is truncated silently; damage anywhere
// else is ErrCorrupt.
func Open(dir string, opts Options, restore func(state []byte) error, apply func(Record) error) (*Store, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}
	snapSeq, _, state, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, stats, err
	}
	stats.SnapshotSeq = snapSeq
	if state != nil && restore != nil {
		if err := restore(state); err != nil {
			return nil, stats, fmt.Errorf("durable: restore snapshot %d: %w", snapSeq, err)
		}
	}
	w, err := openWAL(dir, walOptions{
		Fsync:      opts.Fsync,
		ReplayFrom: snapSeq,
		Metrics:    opts.Metrics,
		Tracer:     opts.Tracer,
	}, func(rec Record) error {
		stats.Replayed++
		if opts.Metrics != nil {
			opts.Metrics.RecoveredRecords.Inc()
		}
		if apply != nil {
			return apply(rec)
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.LastSeq = w.LastSeq()
	return &Store{dir: dir, opts: opts, wal: w, snapSeq: snapSeq}, stats, nil
}

// Append logs one mutation command (JSON-encoding its payload) and
// returns its sequence number. The record is durable only once Sync(seq)
// returns.
func (st *Store) Append(op string, payload any) (uint64, error) {
	if st.opts.WriteFault != nil {
		if err := st.opts.WriteFault(op); err != nil {
			return 0, fmt.Errorf("durable: append %s: %w", op, err)
		}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return 0, fmt.Errorf("durable: encode %s payload: %w", op, err)
	}
	return st.wal.Append(op, data)
}

// Sync blocks until the record at seq is durable (group-committed).
func (st *Store) Sync(seq uint64) error { return st.wal.Sync(seq) }

// LastSeq returns the sequence number of the last appended record.
func (st *Store) LastSeq() uint64 { return st.wal.LastSeq() }

// WriteSnapshot persists state as the snapshot at seq, with epoch in its
// header, then compacts: the WAL rotates to a fresh segment, segments
// fully covered by the snapshot are deleted, and snapshot generations
// beyond keepSnapshots are pruned. Writing a snapshot at or before the
// current one is a no-op.
func (st *Store) WriteSnapshot(seq, epoch uint64, state []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq <= st.snapSeq {
		return nil
	}
	if err := writeSnapshotFile(st.dir, seq, epoch, state); err != nil {
		return err
	}
	if err := st.wal.Rotate(seq); err != nil {
		return err
	}
	st.snapshotWrittenLocked(seq, keepSnapshots)
	return nil
}

// Install persists state — a state that replaces everything logged before
// it, such as a full restore — as a snapshot at the next log position
// instead of appending it as a record: the log holds no copy of it, and
// the position is durable when Install returns (see wal.rotate). Older
// snapshots describe the replaced history and are pruned. The WriteFault
// hook is consulted as for an append.
func (st *Store) Install(epoch uint64, state []byte) (uint64, error) {
	if st.opts.WriteFault != nil {
		if err := st.opts.WriteFault("install"); err != nil {
			return 0, fmt.Errorf("durable: install: %w", err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	seq, err := st.wal.rotate(0, func(seq uint64) error {
		if err := writeSnapshotFile(st.dir, seq, epoch, state); err != nil {
			os.Remove(snapshotPath(st.dir, seq))
			return err
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	st.snapshotWrittenLocked(seq, 1)
	return seq, nil
}

// snapshotWrittenLocked records a snapshot at seq, keeping keep
// generations. Callers hold st.mu.
func (st *Store) snapshotWrittenLocked(seq uint64, keep int) {
	pruneSnapshots(st.dir, keep)
	st.snapSeq = seq
	if st.opts.Metrics != nil {
		st.opts.Metrics.Snapshots.Inc()
	}
}

// ArchiveTail bundles the latest snapshot with the WAL records after it.
// The lock keeps the pair consistent against a concurrent WriteSnapshot.
func (st *Store) ArchiveTail() (*Archive, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.archiveTailLocked()
}

// ArchiveAfter returns the records after seq after as a delta archive when
// the log still holds all of them — after is at or past the snapshot and
// not beyond the last record — and the full ArchiveTail otherwise (a
// requester behind a compaction, or ahead of this log, must restore).
// The delta neither reads the snapshot nor scans segments the compaction
// horizon or after already covers.
func (st *Store) ArchiveAfter(after uint64) (*Archive, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if after < st.snapSeq || after > st.wal.LastSeq() {
		return st.archiveTailLocked()
	}
	tail, err := st.wal.ReadAfter(after)
	if err != nil {
		return nil, err
	}
	if len(tail) > 0 && tail[0].Seq != after+1 {
		return st.archiveTailLocked()
	}
	return &Archive{Delta: true, Tail: tail}, nil
}

func (st *Store) archiveTailLocked() (*Archive, error) {
	snapSeq, epoch, state, err := loadLatestSnapshot(st.dir)
	if err != nil {
		return nil, err
	}
	tail, err := st.wal.ReadAfter(snapSeq)
	if err != nil {
		return nil, err
	}
	return &Archive{SnapshotSeq: snapSeq, Epoch: epoch, Snapshot: state, Tail: tail}, nil
}

// Close flushes (and fsyncs, when configured) outstanding records and
// closes the log. Further appends fail.
func (st *Store) Close() error { return st.wal.Close() }
