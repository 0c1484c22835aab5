package obs

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the process-wide aggregation of query and build activity.
// Every field is an atomic, so recording is wait-free and safe from any
// number of goroutines; there is deliberately no mutex anywhere near the
// query path. I/O counters are not duplicated here — the storage and
// B-tree layers keep their own exact cumulative counters, and the public
// snapshot (fix.DB.Snapshot) merges the two views.
type Registry struct {
	queries      atomic.Int64
	queryErrors  atomic.Int64
	fallbacks    atomic.Int64
	scanned      atomic.Int64
	candidates   atomic.Int64
	sketchPruned atomic.Int64
	sharedMatch  atomic.Int64
	matched      atomic.Int64
	results      atomic.Int64
	nodesVisited atomic.Int64

	// Plan-cache lookups of the query path: a hit serves a query's parsed,
	// planned and compiled form from its index's cache, a miss prepares it.
	planCacheHits   atomic.Int64
	planCacheMisses atomic.Int64

	// Rejection classes of the resource-governance layer: queries turned
	// away at the admission gate, killed by their deadline, or stopped by
	// a work budget — plus panics converted to errors by a containment
	// barrier. Each rejected query is also counted in queryErrors (except
	// admission rejections, which never reach the query pipeline).
	rejectedAdmission atomic.Int64
	deadlineExceeded  atomic.Int64
	budgetExceeded    atomic.Int64
	panicsRecovered   atomic.Int64

	builds       atomic.Int64
	buildRecords atomic.Int64
	buildUnits   atomic.Int64
	buildWallNS  atomic.Int64

	// Ingest pipeline counters. A batch is one group commit (one heap
	// batch sharing one fsync); docs and deletes count the operations
	// inside batches; queueFull counts operations rejected by
	// backpressure; replayed counts operations Open brought an index up
	// to its heap with.
	ingestBatches   atomic.Int64
	ingestDocs      atomic.Int64
	ingestDeletes   atomic.Int64
	ingestFsyncs    atomic.Int64
	ingestQueueFull atomic.Int64
	ingestReplayed  atomic.Int64

	// Online-maintenance counters: background checkpoints, scrub
	// passes (and passes that found damage), and automatic rebuilds of
	// a degraded index.
	checkpoints        atomic.Int64
	checkpointFailures atomic.Int64
	scrubPasses        atomic.Int64
	scrubFindings      atomic.Int64
	autoRebuilds       atomic.Int64
	autoRebuildErrors  atomic.Int64

	// collections maps collection name → *CollectionStats (see
	// scoped.go); populated only when the sharded serving layer is in
	// use.
	collections sync.Map

	latency Histogram
}

// defaultRegistry is the process-wide registry every DB records into.
var defaultRegistry Registry

// Default returns the process-wide registry.
func Default() *Registry { return &defaultRegistry }

// ObserveQuery records one completed query: its latency and the pruning
// pipeline counters. sketchPruned counts the entries the feature filter
// kept and the pair sketch dropped, shared the candidates answered by
// their chunk's first match. visited is the NoK node-visit count when the
// query was traced, 0 otherwise (the counter is documented as covering
// traced queries only).
func (r *Registry) ObserveQuery(total time.Duration, scanned, candidates, sketchPruned, shared, matched, results int, fallback bool, visited int64) {
	r.queries.Add(1)
	if fallback {
		r.fallbacks.Add(1)
	}
	r.scanned.Add(int64(scanned))
	r.candidates.Add(int64(candidates))
	r.sketchPruned.Add(int64(sketchPruned))
	r.sharedMatch.Add(int64(shared))
	r.matched.Add(int64(matched))
	r.results.Add(int64(results))
	r.nodesVisited.Add(visited)
	r.latency.Observe(total)
}

// ObservePlanCache records one plan-cache lookup and whether it hit.
func (r *Registry) ObservePlanCache(hit bool) {
	if hit {
		r.planCacheHits.Add(1)
	} else {
		r.planCacheMisses.Add(1)
	}
}

// ObserveQueryError records a query that failed (parse error, I/O
// error, cancellation); failed queries do not enter the latency
// histogram.
func (r *Registry) ObserveQueryError() { r.queryErrors.Add(1) }

// ObserveAdmissionRejected records a query turned away at an admission
// gate before it entered the query pipeline (fixserve's 429 path).
func (r *Registry) ObserveAdmissionRejected() { r.rejectedAdmission.Add(1) }

// ObserveDeadlineExceeded records a query killed by its deadline.
func (r *Registry) ObserveDeadlineExceeded() { r.deadlineExceeded.Add(1) }

// ObserveBudgetExceeded records a query stopped by a work budget
// (candidate, result, or refinement-node limit).
func (r *Registry) ObserveBudgetExceeded() { r.budgetExceeded.Add(1) }

// ObservePanicRecovered records a panic converted into an error by a
// containment barrier (the fix public API or a par worker).
func (r *Registry) ObservePanicRecovered() { r.panicsRecovered.Add(1) }

// ObserveIngestBatch records one committed ingest batch: the number of
// document inserts and deletes it carried, and how many fsyncs it cost
// (one, for the group commit — recorded explicitly so the docs/fsyncs
// ratio exposes the amortization).
func (r *Registry) ObserveIngestBatch(docs, deletes, fsyncs int) {
	r.ingestBatches.Add(1)
	r.ingestDocs.Add(int64(docs))
	r.ingestDeletes.Add(int64(deletes))
	r.ingestFsyncs.Add(int64(fsyncs))
}

// ObserveIngestQueueFull records operations rejected by ingest
// backpressure (the bounded queue stayed full past the enqueue wait).
func (r *Registry) ObserveIngestQueueFull(ops int) { r.ingestQueueFull.Add(int64(ops)) }

// ObserveIngestReplayed records operations Open brought an index up to its
// heap with: the documents inserted past its commit and the deletes of the
// batches sealed since it applied, or the operations of an ingest log a
// conversion replayed.
func (r *Registry) ObserveIngestReplayed(ops int) { r.ingestReplayed.Add(int64(ops)) }

// ObserveCheckpoint records one checkpoint attempt and whether it
// committed.
func (r *Registry) ObserveCheckpoint(ok bool) {
	if ok {
		r.checkpoints.Add(1)
	} else {
		r.checkpointFailures.Add(1)
	}
}

// ObserveScrub records one completed scrub pass; damaged reports that
// the pass found corruption.
func (r *Registry) ObserveScrub(damaged bool) {
	r.scrubPasses.Add(1)
	if damaged {
		r.scrubFindings.Add(1)
	}
}

// ObserveAutoRebuild records one automatic rebuild attempt of a
// degraded index and whether it succeeded.
func (r *Registry) ObserveAutoRebuild(ok bool) {
	if ok {
		r.autoRebuilds.Add(1)
	} else {
		r.autoRebuildErrors.Add(1)
	}
}

// ObserveBuild records one completed index construction.
func (r *Registry) ObserveBuild(records, units int, wall time.Duration) {
	r.builds.Add(1)
	r.buildRecords.Add(int64(records))
	r.buildUnits.Add(int64(units))
	r.buildWallNS.Add(int64(wall))
}

// RegistrySnapshot is a point-in-time copy of a Registry. Field meanings
// follow the paper's §6.2 vocabulary: Scanned sums entries touched by
// range scans, Candidates sums the candidates refined and SketchPruned the
// entries the pair sketch dropped before refinement — together they sum
// cdt — SharedMatches the candidates answered by their chunk's first
// match, Matched sums rst, Results sums output-node matches.
type RegistrySnapshot struct {
	Queries       int64 `json:"queries"`
	QueryErrors   int64 `json:"query_errors"`
	Fallbacks     int64 `json:"scan_fallbacks"`
	Scanned       int64 `json:"entries_scanned"`
	Candidates    int64 `json:"candidates"`
	SketchPruned  int64 `json:"sketch_pruned"`
	SharedMatches int64 `json:"shared_matches"`
	Matched       int64 `json:"matched_entries"`
	Results       int64 `json:"results"`
	NodesVisited  int64 `json:"nodes_visited"`

	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`

	// Resource-governance rejection classes and contained panics.
	RejectedAdmission int64 `json:"queries_rejected_admission"`
	DeadlineExceeded  int64 `json:"queries_deadline_exceeded"`
	BudgetExceeded    int64 `json:"queries_budget_exceeded"`
	PanicsRecovered   int64 `json:"panics_recovered"`

	Builds       int64         `json:"builds"`
	BuildRecords int64         `json:"build_records"`
	BuildUnits   int64         `json:"build_units"`
	BuildWall    time.Duration `json:"build_wall_ns"`

	// Ingest pipeline counters (group-commit heap write path).
	IngestBatches   int64 `json:"ingest_batches"`
	IngestDocs      int64 `json:"ingest_docs"`
	IngestDeletes   int64 `json:"ingest_deletes"`
	IngestFsyncs    int64 `json:"ingest_fsyncs"`
	IngestQueueFull int64 `json:"ingest_queue_full"`
	IngestReplayed  int64 `json:"ingest_replayed"`

	// Online-maintenance counters (background checkpointer + scrubber).
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	ScrubPasses        int64 `json:"scrub_passes"`
	ScrubFindings      int64 `json:"scrub_findings"`
	AutoRebuilds       int64 `json:"auto_rebuilds"`
	AutoRebuildErrors  int64 `json:"auto_rebuild_errors"`

	// Collections holds the per-collection counters of the sharded
	// serving layer, keyed by collection name; nil (omitted from JSON)
	// when no collection was ever observed in this process.
	Collections map[string]CollectionSnapshot `json:"collections,omitempty"`

	Latency LatencySnapshot `json:"query_latency"`
}

// Snapshot copies the registry. Concurrent recording may interleave with
// the reads; each individual counter is still exact at its read point.
func (r *Registry) Snapshot() RegistrySnapshot {
	return RegistrySnapshot{
		Queries:       r.queries.Load(),
		QueryErrors:   r.queryErrors.Load(),
		Fallbacks:     r.fallbacks.Load(),
		Scanned:       r.scanned.Load(),
		Candidates:    r.candidates.Load(),
		SketchPruned:  r.sketchPruned.Load(),
		SharedMatches: r.sharedMatch.Load(),
		Matched:       r.matched.Load(),
		Results:       r.results.Load(),
		NodesVisited:  r.nodesVisited.Load(),

		PlanCacheHits:   r.planCacheHits.Load(),
		PlanCacheMisses: r.planCacheMisses.Load(),

		RejectedAdmission: r.rejectedAdmission.Load(),
		DeadlineExceeded:  r.deadlineExceeded.Load(),
		BudgetExceeded:    r.budgetExceeded.Load(),
		PanicsRecovered:   r.panicsRecovered.Load(),

		Builds:       r.builds.Load(),
		BuildRecords: r.buildRecords.Load(),
		BuildUnits:   r.buildUnits.Load(),
		BuildWall:    time.Duration(r.buildWallNS.Load()),

		IngestBatches:   r.ingestBatches.Load(),
		IngestDocs:      r.ingestDocs.Load(),
		IngestDeletes:   r.ingestDeletes.Load(),
		IngestFsyncs:    r.ingestFsyncs.Load(),
		IngestQueueFull: r.ingestQueueFull.Load(),
		IngestReplayed:  r.ingestReplayed.Load(),

		Checkpoints:        r.checkpoints.Load(),
		CheckpointFailures: r.checkpointFailures.Load(),
		ScrubPasses:        r.scrubPasses.Load(),
		ScrubFindings:      r.scrubFindings.Load(),
		AutoRebuilds:       r.autoRebuilds.Load(),
		AutoRebuildErrors:  r.autoRebuildErrors.Load(),

		Collections: r.snapshotCollections(),

		Latency: r.latency.Snapshot(),
	}
}

var publishOnce sync.Once

// Publish registers fn's value under the expvar name "fix" (alongside
// the runtime's memstats/cmdline variables on /debug/vars). expvar
// names are process-global and cannot be unregistered, so only the
// first call in a process takes effect; later calls are no-ops.
func Publish(fn func() any) {
	publishOnce.Do(func() {
		expvar.Publish("fix", expvar.Func(fn))
	})
}
