package ingest

import "repro/internal/obs"

// Ingest metrics, registered on the default registry so they ride the
// serving stack's /metrics exposition. The "WAL" in the names is the
// log at the store file's tail: the records appended after the last
// commit. The WAL fsync
// histogram is the one to watch: every accepted batch pays exactly one
// fsync before the 200, so its tail is the ingest latency floor.
var (
	framesTotal = obs.NewCounter("goblaz_ingest_frames_total",
		"Frames accepted into the log at the store file's tail.")
	batchesTotal = obs.NewCounter("goblaz_ingest_batches_total",
		"Ingest batches accepted (one log fsync each).")
	commitsTotal = obs.NewCounter("goblaz_ingest_commits_total",
		"Footer commits indexing logged frames.")
	commitFailures = obs.NewCounter("goblaz_ingest_commit_failures_total",
		"Commit attempts that failed before the commit point (retried on the next trigger; pending frames stay logged).")
	cleanupFailures = obs.NewCounter("goblaz_ingest_commit_cleanup_failures_total",
		"Read-view swaps that failed after a commit or compaction stood; queries stay on the previous view.")
	walFsyncSeconds = obs.NewHistogram("goblaz_ingest_wal_fsync_seconds",
		"Latency of the store-file log fsync (one per accepted batch).", nil)
	walBytesTotal = obs.NewCounter("goblaz_ingest_wal_bytes_total",
		"Log record bytes appended at the store file's tail.")
	replayedTotal = obs.NewCounter("goblaz_ingest_wal_replayed_frames_total",
		"Logged frames recovered and committed on open.")
	discardedTotal = obs.NewCounter("goblaz_ingest_wal_discarded_frames_total",
		"Logged frames dropped on recovery: a torn tail, or a record whose label is committed or repeats.")
	compactionsTotal = obs.NewCounter("goblaz_ingest_compactions_total",
		"Store rewrites reclaiming dead bytes left by superseded footers and record framing.")
	compactionFailures = obs.NewCounter("goblaz_ingest_compaction_failures_total",
		"Store compactions that failed; a post-rename failure also poisons the store until reopen.")
	pendingFrames = obs.NewGauge("goblaz_ingest_pending_frames",
		"Accepted frames not yet folded into a committed footer.")
	pendingBytes = obs.NewGauge("goblaz_ingest_pending_bytes",
		"Payload bytes awaiting the next commit.")
)
