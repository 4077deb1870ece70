package obs

// WALMetrics groups the registry series of the durability layer (the
// write-ahead log and snapshot machinery in internal/durable). It is
// created against a registry with NewWALMetrics and handed to the store;
// a nil *WALMetrics disables instrumentation, so embedded and test runs
// pay nothing.
type WALMetrics struct {
	// Appends counts records appended to the WAL.
	Appends *Counter // wal_appends_total
	// Fsyncs counts fsync(2) calls issued by the group-commit path. The
	// ratio appends/fsyncs is the group-commit batching factor.
	Fsyncs *Counter // wal_fsyncs_total
	// GroupCommitRecords is the number of records each group-commit
	// leader's flush made durable: 1 means no coalescing.
	GroupCommitRecords *Histogram // wal_group_commit_records
	// Bytes counts framed record bytes written to the WAL.
	Bytes *Counter // wal_bytes_written_total
	// Snapshots counts snapshots written.
	Snapshots *Counter // wal_snapshots_total
	// SnapshotSeconds measures snapshot write duration (export, encode,
	// fsync and rename included).
	SnapshotSeconds *Histogram // wal_snapshot_seconds
	// RecoveredRecords counts WAL records replayed during crash recovery.
	RecoveredRecords *Counter // wal_recovered_records_total
}

// NewWALMetrics registers the durability-layer metric families in reg and
// returns their handles.
func NewWALMetrics(reg *Registry) *WALMetrics {
	return &WALMetrics{
		Appends: reg.Counter("wal_appends_total",
			"Mutation records appended to the write-ahead log.").With(),
		Fsyncs: reg.Counter("wal_fsyncs_total",
			"fsync calls issued by the WAL group-commit path.").With(),
		GroupCommitRecords: reg.Histogram("wal_group_commit_records",
			"Records made durable per WAL group-commit leader flush.",
			ExpBuckets(1, 2, 8)).With(),
		Bytes: reg.Counter("wal_bytes_written_total",
			"Framed record bytes written to the write-ahead log.").With(),
		Snapshots: reg.Counter("wal_snapshots_total",
			"Policy Memory snapshots written to the data directory.").With(),
		SnapshotSeconds: reg.Histogram("wal_snapshot_seconds",
			"Snapshot write duration in seconds.", nil).With(),
		RecoveredRecords: reg.Counter("wal_recovered_records_total",
			"WAL records replayed during crash recovery.").With(),
	}
}
