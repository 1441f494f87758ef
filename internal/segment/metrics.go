package segment

import "mddm/internal/obs"

// The mddm_segment_* series; inventoried in docs/OBSERVABILITY.md.
var (
	mSegmentsOpen = obs.NewGauge("mddm_segment_open",
		"Sealed segment files (log files of one fold each) currently open across stores.")
	mBytesSegments = obs.NewGauge("mddm_segment_bytes",
		"Bytes of persisted store artifacts by kind, summed over the open stores.",
		obs.Label{Key: "kind", Value: "segments"})
	mBytesWAL = obs.NewGauge("mddm_segment_bytes",
		"Bytes of persisted store artifacts by kind, summed over the open stores.",
		obs.Label{Key: "kind", Value: "wal"})
	mBytesSnapshot = obs.NewGauge("mddm_segment_bytes",
		"Bytes of persisted store artifacts by kind, summed over the open stores.",
		obs.Label{Key: "kind", Value: "snapshot"})
	mWALAppends = obs.NewCounter("mddm_segment_wal_appends_total",
		"Append records durably framed into the write-ahead log.")
	mWALFsyncs = obs.NewCounter("mddm_segment_wal_fsyncs_total",
		"fsync calls issued on the write-ahead log.")
	mFolds = obs.NewCounter("mddm_segment_folds_total",
		"Folds completed: the log tail sealed into a segment file.")
	mRecoveryTruncations = obs.NewCounter("mddm_segment_recovery_truncations_total",
		"Torn WAL tails truncated during recovery.")
	mCheckpointRejects = obs.NewCounter("mddm_segment_checkpoint_rejects_total",
		"Columns sections (whole, on context drift) or single columns of a restored snapshot skipped during recovery; the skipped columns build from the closure bitmaps.")
	mSnapshotRestores = obs.NewCounter("mddm_segment_snapshot_restores_total",
		"Recoveries that restored the engine from a snapshot instead of replaying history.")
	mSnapshotRejects = obs.NewCounter("mddm_segment_snapshot_rejects_total",
		"Engine snapshots rejected during recovery; recovery proceeded by replaying history.")
)
