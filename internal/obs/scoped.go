package obs

import "sync/atomic"

// CollectionStats aggregates the activity of one named collection in the
// sharded serving layer (internal/collection). Like the Registry it
// lives in, every field is an atomic, so the scatter-gather hot path
// records without locks; the per-shard query detail (latency, pruning
// counters) still lands in the process-wide Registry — these counters
// add only what the collection layer knows and the per-DB layer cannot:
// fan-out shape, partial results, and routing decisions.
type CollectionStats struct {
	queries       atomic.Int64 // collection-level queries (one per client call)
	targeted      atomic.Int64 // routed to a single shard by root label
	scattered     atomic.Int64 // broadcast to every shard
	partials      atomic.Int64 // queries that returned with ≥1 failed shard
	shardTimeouts atomic.Int64 // per-shard deadline kills observed
	shardErrors   atomic.Int64 // other per-shard failures tolerated in a partial result
	ingestDocs    atomic.Int64 // documents routed into shards
	ingestDeletes atomic.Int64 // deletes routed into shards
}

// ObserveCollectionQuery records one collection-level query: whether the
// router targeted a single shard or scattered to all of them, and how
// many shards timed out or failed (a nonzero count of either makes the
// result partial).
func (c *CollectionStats) ObserveCollectionQuery(targeted bool, timeouts, failures int) {
	c.queries.Add(1)
	if targeted {
		c.targeted.Add(1)
	} else {
		c.scattered.Add(1)
	}
	if timeouts+failures > 0 {
		c.partials.Add(1)
	}
	c.shardTimeouts.Add(int64(timeouts))
	c.shardErrors.Add(int64(failures))
}

// ObserveCollectionIngest records documents and deletes routed through a
// collection into its shards.
func (c *CollectionStats) ObserveCollectionIngest(docs, deletes int) {
	c.ingestDocs.Add(int64(docs))
	c.ingestDeletes.Add(int64(deletes))
}

// CollectionSnapshot is a point-in-time copy of one collection's
// counters.
type CollectionSnapshot struct {
	Queries       int64 `json:"queries"`
	Targeted      int64 `json:"queries_targeted"`
	Scattered     int64 `json:"queries_scattered"`
	Partials      int64 `json:"queries_partial"`
	ShardTimeouts int64 `json:"shard_timeouts"`
	ShardErrors   int64 `json:"shard_errors"`
	IngestDocs    int64 `json:"ingest_docs"`
	IngestDeletes int64 `json:"ingest_deletes"`
}

// Collection returns the named collection's counters in this registry,
// creating them on first use. The same name always returns the same
// *CollectionStats for the life of the process (dropping a collection
// retains its counters — totals are cumulative, like every other
// registry counter). The lookup is a lock-free sync.Map read after the
// first query creates the entry.
func (r *Registry) Collection(name string) *CollectionStats {
	if v, ok := r.collections.Load(name); ok {
		return v.(*CollectionStats)
	}
	v, _ := r.collections.LoadOrStore(name, &CollectionStats{})
	return v.(*CollectionStats)
}

// snapshotCollections copies every collection's counters, keyed by name.
// It returns nil when no collection was ever observed, so single-index
// deployments serialize no empty "collections" object.
func (r *Registry) snapshotCollections() map[string]CollectionSnapshot {
	var out map[string]CollectionSnapshot
	r.collections.Range(func(k, v any) bool {
		c := v.(*CollectionStats)
		if out == nil {
			out = make(map[string]CollectionSnapshot)
		}
		out[k.(string)] = CollectionSnapshot{
			Queries:       c.queries.Load(),
			Targeted:      c.targeted.Load(),
			Scattered:     c.scattered.Load(),
			Partials:      c.partials.Load(),
			ShardTimeouts: c.shardTimeouts.Load(),
			ShardErrors:   c.shardErrors.Load(),
			IngestDocs:    c.ingestDocs.Load(),
			IngestDeletes: c.ingestDeletes.Load(),
		}
		return true
	})
	return out
}
