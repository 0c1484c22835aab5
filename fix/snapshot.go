package fix

import (
	"time"

	"github.com/fix-index/fix/internal/obs"
)

// Metrics is a point-in-time view of the process-wide metrics registry
// merged with this DB's cumulative subsystem counters. The registry part
// (query/build totals, latency) is shared by every DB in the process;
// the BTree/Storage parts are this DB's own exact counters. All fields
// carry JSON tags, so a Metrics marshals directly onto a metrics
// endpoint (cmd/fixserve serves exactly this at /metrics).
type Metrics struct {
	// Query totals. Scanned/Candidates/Matched/Results sum the §6.2
	// pipeline counters over all queries, SharedMatches the candidates
	// answered by their chunk's first match; NodesVisited covers traced
	// queries only (untraced refinement skips the counter).
	Queries       int64 `json:"queries"`
	QueryErrors   int64 `json:"query_errors"`
	ScanFallbacks int64 `json:"scan_fallbacks"`
	Scanned       int64 `json:"entries_scanned"`
	Candidates    int64 `json:"candidates"`
	SketchPruned  int64 `json:"sketch_pruned"`
	SharedMatches int64 `json:"shared_matches"`
	Matched       int64 `json:"matched_entries"`
	Results       int64 `json:"results"`
	NodesVisited  int64 `json:"nodes_visited"`

	// Plan-cache lookups of the query paths: a hit serves a query's
	// parsed, planned and compiled form from its index's cache, a miss
	// prepares it (docs/OBSERVABILITY.md). Queries on a database without
	// an index are neither.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`

	// Resource-governance rejections, by class. RejectedAdmission is
	// incremented by servers (cmd/fixserve) when the admission gate turns
	// a request away; the other three count queries stopped by their
	// deadline, stopped by a Limits budget, and panics converted to
	// errors by the containment barriers. See docs/ROBUSTNESS.md.
	RejectedAdmission int64 `json:"queries_rejected_admission"`
	DeadlineExceeded  int64 `json:"queries_deadline_exceeded"`
	BudgetExceeded    int64 `json:"queries_budget_exceeded"`
	PanicsRecovered   int64 `json:"panics_recovered"`

	// Build totals across the process.
	Builds       int64         `json:"builds"`
	BuildRecords int64         `json:"build_records"`
	BuildUnits   int64         `json:"build_units"`
	BuildWall    time.Duration `json:"build_wall_ns"`

	// Ingest pipeline totals across the process: committed group-commit
	// batches, the inserts/deletes they carried, the fsyncs they cost,
	// operations rejected by backpressure, and operations replayed from
	// the ingest WAL during crash recovery. See docs/ROBUSTNESS.md.
	IngestBatches   int64 `json:"ingest_batches"`
	IngestDocs      int64 `json:"ingest_docs"`
	IngestDeletes   int64 `json:"ingest_deletes"`
	IngestFsyncs    int64 `json:"ingest_fsyncs"`
	IngestQueueFull int64 `json:"ingest_queue_full"`
	IngestReplayed  int64 `json:"ingest_replayed"`

	// Online-maintenance totals across the process: WAL checkpoints
	// (and failed attempts), scrub passes (and passes that found
	// damage), and automatic rebuilds of degraded indexes.
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	ScrubPasses        int64 `json:"scrub_passes"`
	ScrubFindings      int64 `json:"scrub_findings"`
	AutoRebuilds       int64 `json:"auto_rebuilds"`
	AutoRebuildErrors  int64 `json:"auto_rebuild_errors"`

	// Latency is the bounded query-latency histogram with estimated
	// quantiles (upper-bound error is one power-of-two bucket).
	Latency obs.LatencySnapshot `json:"query_latency"`

	// This DB's shape and cumulative I/O. DocumentsDeleted counts
	// tombstoned records still occupying the heap; IngestLag is the
	// number of WAL operations applied in memory but not yet folded into
	// a durable index commit, WALBytes the log's on-disk size, and
	// LastCheckpointAge how long ago that commit happened — together
	// they size the replay window a crash right now would cost
	// (Checkpoint resets all three). Generation is the publish sequence
	// number of the currently published snapshot and LiveGenerations how
	// many generations are retained (the published one plus older ones
	// still pinned by open Views).
	Documents         int           `json:"documents"`
	DocumentsDeleted  int           `json:"documents_deleted"`
	IngestLag         int           `json:"ingest_lag"`
	WALBytes          int64         `json:"wal_bytes"`
	LastCheckpointAge time.Duration `json:"last_checkpoint_age_ns"`
	IndexEntries      int           `json:"index_entries"`
	IndexSizeBytes    int64         `json:"index_size_bytes"`
	Generation        uint64        `json:"generation"`
	LiveGenerations   int64         `json:"live_generations"`
	BTree             BTreeStats    `json:"btree"`
	Storage           StorageStats  `json:"storage"`
}

// BTreeStats are the index B-tree's cumulative page counters. The image
// is resident: PageReads are the pages Open read and verified, PageWrites
// the pages checkpoints (and a build) wrote to fix.btree, CacheHits every
// page access of the writer and of queries.
type BTreeStats struct {
	PageReads  int64 `json:"page_reads"`
	PageWrites int64 `json:"page_writes"`
	CacheHits  int64 `json:"cache_hits"`
}

// StorageStats are the primary record heap's cumulative I/O counters.
type StorageStats struct {
	RecordsWritten int64 `json:"records_written"`
	BytesWritten   int64 `json:"bytes_written"`
	SeqReads       int64 `json:"seq_reads"`
	RandomReads    int64 `json:"random_reads"`
	CachedReads    int64 `json:"cached_reads"`
	BytesRead      int64 `json:"bytes_read"`
	SubtreeReads   int64 `json:"subtree_reads"`
	SubtreeBytes   int64 `json:"subtree_bytes"`
}

// Metrics returns the current operational counters; see Metrics (type).
// It is safe to call concurrently with queries — reads are atomic or
// mutex-guarded copies, never locks held across I/O.
func (db *DB) Metrics() Metrics {
	reg := obs.Default().Snapshot()
	s := Metrics{
		Queries:       reg.Queries,
		QueryErrors:   reg.QueryErrors,
		ScanFallbacks: reg.Fallbacks,
		Scanned:       reg.Scanned,
		Candidates:    reg.Candidates,
		SketchPruned:  reg.SketchPruned,
		SharedMatches: reg.SharedMatches,
		Matched:       reg.Matched,
		Results:       reg.Results,
		NodesVisited:  reg.NodesVisited,

		PlanCacheHits:   reg.PlanCacheHits,
		PlanCacheMisses: reg.PlanCacheMisses,

		RejectedAdmission: reg.RejectedAdmission,
		DeadlineExceeded:  reg.DeadlineExceeded,
		BudgetExceeded:    reg.BudgetExceeded,
		PanicsRecovered:   reg.PanicsRecovered,
		Builds:            reg.Builds,
		BuildRecords:      reg.BuildRecords,
		BuildUnits:        reg.BuildUnits,
		BuildWall:         reg.BuildWall,

		IngestBatches:   reg.IngestBatches,
		IngestDocs:      reg.IngestDocs,
		IngestDeletes:   reg.IngestDeletes,
		IngestFsyncs:    reg.IngestFsyncs,
		IngestQueueFull: reg.IngestQueueFull,
		IngestReplayed:  reg.IngestReplayed,

		Checkpoints:        reg.Checkpoints,
		CheckpointFailures: reg.CheckpointFailures,
		ScrubPasses:        reg.ScrubPasses,
		ScrubFindings:      reg.ScrubFindings,
		AutoRebuilds:       reg.AutoRebuilds,
		AutoRebuildErrors:  reg.AutoRebuildErrors,

		Latency:           reg.Latency,
		Documents:         db.NumDocuments(),
		DocumentsDeleted:  db.store.NumDeleted(),
		IngestLag:         db.IngestLag(),
		WALBytes:          db.WALBytes(),
		LastCheckpointAge: time.Since(db.LastCheckpoint()),
		Generation:        db.GenerationID(),
		LiveGenerations:   db.LiveGenerations(),
	}
	st := db.store.Stats()
	s.Storage = StorageStats{
		RecordsWritten: st.RecordsWritten,
		BytesWritten:   st.BytesWritten,
		SeqReads:       st.SeqReads,
		RandomReads:    st.RandomReads,
		CachedReads:    st.CachedReads,
		BytesRead:      st.BytesRead,
		SubtreeReads:   st.SubtreeReads,
		SubtreeBytes:   st.SubtreeBytes,
	}
	if ix := db.indexRef(); ix != nil {
		s.IndexEntries = ix.Entries()
		s.IndexSizeBytes = ix.SizeBytes()
		if bt := ix.BTree(); bt != nil {
			bs := bt.Stats()
			s.BTree = BTreeStats{
				PageReads:  bs.PageReads,
				PageWrites: bs.PageWrites,
				CacheHits:  bs.CacheHits,
			}
		}
	}
	return s
}

// PublishExpvar exposes db's Metrics as the expvar variable "fix", so
// any handler serving expvar's /debug/vars (cmd/fixserve mounts one)
// reports it alongside the runtime's memstats. expvar names are
// process-global and cannot be unregistered, so only the first call in
// a process takes effect; later calls (for this or any other DB) are
// no-ops.
func PublishExpvar(db *DB) {
	obs.Publish(func() any { return db.Metrics() })
}
