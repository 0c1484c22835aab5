package fix

import (
	"context"
	"errors"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/storage"
)

// ErrViewClosed reports a query on a View whose Close already ran.
var ErrViewClosed = errors.New("fix: view closed")

// View is a pinned, immutable snapshot of the database: the index image,
// the document set, and the tombstones exactly as they were when View()
// was called. Queries on a View take no lock but the index's plan cache's,
// for one map lookup — each runs on its caller's goroutine, concurrent
// queries on one View (or many) scale across cores, and writers
// publishing new generations (Save, BuildIndex, RebuildIndex, ingest
// batches) never block or tear an in-flight query; they become visible to
// Views opened afterwards.
//
// A View holds a reference on its generation until Close; Close is
// idempotent and must be called, or the generation's memory (the frozen
// B-tree image) is retained for the life of the process. The DB-level
// query methods are pin-for-one-call wrappers over a View, so code that
// does not need repeatable reads never touches this type.
type View struct {
	db     *DB
	gen    *core.Generation
	closed atomic.Bool
}

// View pins the current generation and returns a handle for querying it.
// The snapshot is the last published state: everything committed by
// Save/BuildIndex/RebuildIndex/AddDocument/ingest batches so far, and
// nothing that commits afterwards. Always pair with Close.
func (db *DB) View() *View {
	for {
		g := db.gen.Load()
		if g == nil {
			// Publication raced DB construction (only possible for a DB
			// built inside this package before its first publish).
			db.publish()
			continue
		}
		if g.Pin() {
			return &View{db: db, gen: g}
		}
		// The generation was fully released between Load and Pin — the
		// publisher has already swapped in a newer one; retry on it.
	}
}

// Close releases the View's pin on its generation. Idempotent; queries
// after Close return ErrViewClosed.
//
// paircheck: releases(gen) — the pin was taken in DB.View; deleting the
// Unpin below would leak the generation (and fail `make lint`).
func (v *View) Close() error {
	if v.closed.CompareAndSwap(false, true) {
		v.gen.Unpin()
	}
	return nil
}

// Generation returns the publish sequence number of the pinned snapshot.
// It increases by one at every publish, so two Views over the same
// number are byte-identical snapshots.
func (v *View) Generation() uint64 { return v.gen.ID() }

// GenerationID returns the publish sequence number of the currently
// published generation (the one a new View would pin).
func (db *DB) GenerationID() uint64 {
	if g := db.gen.Load(); g != nil {
		return g.ID()
	}
	return 0
}

// LiveGenerations returns how many generations are currently retained:
// the published one plus older ones still pinned by open Views. A steady
// value above 1 under no open Views indicates a pin leak.
func (db *DB) LiveGenerations() int64 { return db.liveGens.Load() }

// publish freezes the current committed state into a new generation and
// atomically swaps it in as the one queries pin. Writers call it after
// every durable state change (Save, index build/rebuild, a successful
// ingest batch, a query-path degrade). The previous generation keeps
// serving every View pinned to it and is released when its last pin
// drops. pubMu serializes publishers; the read lock excludes a mid-batch
// applyBatch, so a freeze never captures a half-applied state.
//
// paircheck: releases(prev) — the publisher's reference to the previous
// generation ends here; deleting the Unpin would retain every old
// generation forever.
func (db *DB) publish() {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	prev := db.gen.Load()
	db.mu.RLock()
	g := core.NewGeneration(db.genSeq.Add(1), db.index, db.store, db.dict, prev,
		func() { db.liveGens.Add(-1) })
	db.mu.RUnlock()
	db.liveGens.Add(1)
	db.gen.Store(g)
	if prev != nil {
		prev.Unpin() // drop the publisher's reference; pinned Views keep it alive
	}
}

// Query evaluates the XPath expression against the pinned snapshot. It
// is QueryCtx with context.Background(); see DB.QueryCtx for semantics —
// the two differ only in which state they see (the View's frozen
// generation vs. the latest published one).
func (v *View) Query(expr string, opts ...QueryOption) (Result, error) {
	return v.QueryCtx(context.Background(), expr, opts...)
}

// QueryCtx evaluates the XPath expression against the pinned snapshot
// with cancellation, resource governance, and optional tracing — the
// same pipeline and options as DB.QueryCtx, minus the DB's locks: a
// repeated text's plan comes from the index's plan cache, pruning scans
// the frozen B-tree image and refinement reads the frozen record view,
// so concurrent calls proceed fully in parallel.
func (v *View) QueryCtx(ctx context.Context, expr string, opts ...QueryOption) (res Result, err error) {
	db := v.db
	defer db.contain("QueryCtx", true, &err)
	ctx, cancel, cfg, lim, err := v.govern(ctx, opts)
	defer cancel()
	if err != nil {
		return Result{}, err
	}
	var tr *obs.Trace
	start := time.Now()
	if cfg.trace || db.slowQueryEnabled() {
		tr = &obs.Trace{Query: expr, Start: start, Generation: v.gen.ID()}
	}
	res, err = v.queryTraced(ctx, expr, tr, lim, cfg.scanOnly)
	total := time.Since(start)
	if err != nil {
		observeQueryError(err)
		res = Result{}
		if tr != nil {
			// Keep the partial trace: the phases that did run are
			// attributed, so a deadline kill shows where the time went.
			tr.Total = total
			res.Trace = traceFromObs(tr)
		}
		return res, err
	}
	var visited int64
	if tr != nil {
		tr.Total = total
		visited = tr.NodesVisited
		pub := traceFromObs(tr)
		res.Trace = pub
		if db.slowQueryEnabled() && total >= db.obsOpts.SlowQueryThreshold {
			db.obsOpts.OnSlowQuery(*pub)
		}
	}
	var scanned int
	if tr != nil {
		scanned = tr.Scanned
	}
	obs.Default().ObserveQuery(total, scanned, res.Candidates, res.SketchPruned, res.SharedMatches, res.MatchedEntries, res.Count, res.ScanFallback, visited)
	return res, nil
}

// govern is the preamble every query operation of a View shares: it fails
// a closed View, applies the options, resolves the limits and bounds ctx by
// their Timeout. The caller defers cancel, which is never nil.
func (v *View) govern(ctx context.Context, opts []QueryOption) (_ context.Context, cancel context.CancelFunc, cfg queryConfig, lim Limits, err error) {
	cancel = func() {}
	if v.closed.Load() {
		return ctx, cancel, cfg, lim, ErrViewClosed
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	lim = v.db.limitsFor(&cfg)
	if lim.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
	}
	return ctx, cancel, cfg, lim, nil
}

// queryTraced runs the query pipeline against the pinned generation,
// filling tr (which may be nil) along the way, under lim. scanOnly
// bypasses the index entirely — the degraded-operation path ScanOnly
// requests.
func (v *View) queryTraced(ctx context.Context, expr string, tr *obs.Trace, lim Limits, scanOnly bool) (Result, error) {
	g := v.gen
	pq, err := g.Prepare(expr, tr)
	if err != nil {
		return Result{}, err
	}
	if !scanOnly && pq.Covered() {
		res, err := g.QueryPrepared(ctx, pq, tr, coreLimits(lim))
		if err != nil {
			return Result{}, err
		}
		return Result{
			Count:          res.Count,
			Entries:        res.Entries,
			Candidates:     res.Candidates,
			SketchPruned:   res.SketchPruned,
			SharedMatches:  res.SharedMatches,
			MatchedEntries: res.Matched,
			ScanFallback:   res.Fallback,
		}, nil
	}
	if tr != nil && scanOnly {
		tr.Fallback = true
	}
	res, err := g.ScanCount(ctx, pq.Tree(), tr, coreLimits(lim))
	if err != nil {
		return Result{}, err
	}
	return Result{Count: res.Count, ScanFallback: scanOnly}, nil
}

// Exists reports whether the query has at least one match in the pinned
// snapshot. It is ExistsCtx with context.Background().
func (v *View) Exists(expr string, opts ...QueryOption) (bool, error) {
	return v.ExistsCtx(context.Background(), expr, opts...)
}

// ExistsCtx is Exists with cancellation; verification stops at the first
// match. Of the query options, QueryLimits (for its Timeout) and
// ScanOnly apply; Exists produces no Result, so Trace has nothing to
// attach to and is ignored.
func (v *View) ExistsCtx(ctx context.Context, expr string, opts ...QueryOption) (ok bool, err error) {
	defer v.db.contain("ExistsCtx", true, &err)
	ctx, cancel, cfg, _, err := v.govern(ctx, opts)
	defer cancel()
	if err != nil {
		return false, err
	}
	g := v.gen
	pq, err := g.Prepare(expr, nil)
	if err != nil {
		return false, err
	}
	if !cfg.scanOnly && pq.Covered() {
		return g.ExistsPrepared(ctx, pq)
	}
	return g.ScanExists(ctx, pq.Tree())
}

// QueryDocuments returns the IDs of documents in the pinned snapshot
// containing at least one match, in document order. It is
// QueryDocumentsCtx with context.Background().
func (v *View) QueryDocuments(expr string, opts ...QueryOption) ([]uint32, error) {
	return v.QueryDocumentsCtx(context.Background(), expr, opts...)
}

// QueryDocumentsCtx is QueryDocuments with cancellation. Documents are
// verified in document order, which is the result order. Of the query
// options, QueryLimits (for its Timeout) and ScanOnly (skip the index
// candidate pre-filter) apply; Trace is ignored.
func (v *View) QueryDocumentsCtx(ctx context.Context, expr string, opts ...QueryOption) (docs []uint32, err error) {
	db := v.db
	defer db.contain("QueryDocumentsCtx", true, &err)
	ctx, cancel, cfg, _, err := v.govern(ctx, opts)
	defer cancel()
	if err != nil {
		return nil, err
	}
	g := v.gen
	pq, err := g.Prepare(expr, nil)
	if err != nil {
		return nil, err
	}
	nq, err := nok.Compile(pq.Tree(), db.dict)
	if err != nil {
		return nil, err
	}
	var candDocs map[uint32]bool
	if !cfg.scanOnly && pq.Covered() {
		cands, _, err := g.CandidatesPrepared(ctx, pq)
		switch {
		case errors.Is(err, core.ErrDegraded):
			// The index cannot be trusted (frozen degraded, or found
			// corrupt by this probe); scan every document instead.
		case err != nil:
			return nil, err
		default:
			candDocs = make(map[uint32]bool, len(cands))
			for _, c := range cands {
				candDocs[c.Primary.Rec()] = true
			}
		}
	}
	store, tombs := g.Store(), g.Tombs()
	// The matcher walks records in the heap's mapping: a page truncated
	// away under it is a read error, not a crash.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer storage.GuardFault(&err)
	for rec := range uint32(store.NumRecords()) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if (candDocs != nil && !candDocs[rec]) || tombs.Has(rec) {
			continue
		}
		cur, err := store.Cursor(rec)
		if err != nil {
			return nil, err
		}
		if nq.Exists(cur, 0) {
			docs = append(docs, rec)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return docs, nil
}
