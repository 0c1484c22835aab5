package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/par"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// Generation is one immutable, published snapshot of the queryable state:
// a frozen B-tree image, a frozen view of the primary heap's record
// table, the tombstone set as of the freeze, and the (shared, read-only)
// query-planning state of the index it was frozen from. Queries against a
// Generation take no lock anywhere — not the B-tree mutex, not the store
// mutex — so any number of goroutines can query one concurrently while
// writers prepare and publish the next generation.
//
// Generations are reference counted: the publisher holds one reference
// (released when the next generation replaces it), and every pinned
// reader holds one more. When the count reaches zero the release hook
// runs and the generation's memory becomes collectable; the heap file
// itself is shared with the live store and is never reclaimed per
// generation.
type Generation struct {
	id      uint64            // immutable after publish
	ix      *Index            // immutable after publish (plan state is read-only and shared)
	view    *btree.View       // immutable after publish (nil when degraded or index-less)
	store   *storage.ReadView // immutable after publish
	tombs   *storage.TombSet  // immutable after publish
	dict    *xmltree.Dict     // immutable after publish
	workers int               // immutable after publish
	entries int               // immutable after publish
	health  error             // immutable after publish (frozen at freeze time)

	refs      atomic.Int64
	onRelease func() // immutable after publish
}

// NewGeneration freezes the current state of store (and ix, which may be
// nil when no index exists) into a new Generation. prev, when it is the
// previously published generation of the same index, lets the B-tree
// freeze share unchanged page buffers. Freezing never fails: if the
// index is degraded, or the B-tree image cannot be materialized, the
// generation is published with that health problem recorded and answers
// queries through the exact scan fallback, mirroring a degraded Index.
//
// The caller receives the publisher's reference (refs = 1); onRelease
// runs once when the last reference is dropped.
func NewGeneration(id uint64, ix *Index, store *storage.Store, dict *xmltree.Dict, prev *Generation, onRelease func()) *Generation {
	g := &Generation{
		id:        id,
		ix:        ix,
		store:     store.Freeze(),
		tombs:     store.TombSnapshot(),
		dict:      dict,
		onRelease: onRelease,
	}
	g.refs.Store(1)
	if ix != nil {
		g.workers = ix.Options().Workers
		g.health = ix.Health()
		if g.health == nil {
			var pv *btree.View
			if prev != nil && prev.ix == ix {
				pv = prev.view
			}
			if bt := ix.BTree(); bt != nil {
				v, err := bt.FreezeView(pv)
				if err != nil {
					g.health = fmt.Errorf("%w: freezing index view: %w", ErrDegraded, err)
					// Freezing reads (and verifies) every changed page, so
					// a failure here is detected corruption of the live
					// tree — record it on the index like the query path
					// does, so Health reports it until a rebuild.
					ix.setHealth(err)
				} else {
					g.view = v
					g.entries = v.Len()
				}
			} else {
				g.health = fmt.Errorf("%w: B-tree unavailable", ErrDegraded)
			}
		}
	}
	return g
}

// ID returns the generation's publish sequence number.
func (g *Generation) ID() uint64 { return g.id }

// Health returns nil for a generation frozen from a healthy index (or
// one with no index at all), and otherwise the problem — frozen at
// freeze time — that routes its queries to the scan fallback.
func (g *Generation) Health() error { return g.health }

// Entries returns the number of index entries in the frozen image.
func (g *Generation) Entries() int { return g.entries }

// HasIndex reports whether the generation carries an index.
func (g *Generation) HasIndex() bool { return g.ix != nil }

// Store returns the frozen view of the primary heap.
func (g *Generation) Store() *storage.ReadView { return g.store }

// Tombs returns the frozen tombstone set.
func (g *Generation) Tombs() *storage.TombSet { return g.tombs }

// Workers returns the worker-pool bound frozen from the index options.
func (g *Generation) Workers() int { return g.workers }

// Refs returns the current reference count (for tests and metrics).
func (g *Generation) Refs() int64 { return g.refs.Load() }

// Pin takes a reference, reporting false when the generation is already
// fully released (the count was zero — the caller raced a final Unpin
// and must reload the current generation and retry).
func (g *Generation) Pin() bool {
	for {
		n := g.refs.Load()
		if n <= 0 {
			return false
		}
		if g.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Unpin drops a reference; the last drop runs the release hook.
func (g *Generation) Unpin() {
	if g.refs.Add(-1) == 0 && g.onRelease != nil {
		g.onRelease()
	}
}

// Covered reports whether the generation's index can answer the query.
func (g *Generation) Covered(path *xpath.Path) bool {
	return g.ix != nil && g.ix.Covered(path)
}

// candidates is candidatesForPlan over the frozen B-tree image: the same
// range scan and feature filter, minus every lock.
func (g *Generation) candidates(ctx context.Context, p *queryPlan, lim Limits) ([]Candidate, int, error) {
	if p.empty {
		return nil, 0, nil
	}
	if g.view == nil {
		return nil, 0, fmt.Errorf("%w: B-tree view unavailable", ErrCorrupt)
	}
	var from, to []byte
	if p.labelOK {
		from, to = scanBounds(p.topLabel, p.feats[0].Max)
	}
	var cands []Candidate
	scanned := 0
	cancelled := false
	overCap := false
	err := g.view.Scan(from, to, func(k, v []byte) bool {
		scanned++
		if scanned%1024 == 0 && ctx.Err() != nil {
			cancelled = true
			return false
		}
		ek := decodeKey(k)
		entry := Features{Min: ek.min, Max: ek.max}
		for _, f := range p.feats {
			if !entry.Contains(f) {
				return true
			}
		}
		ev := decodeValue(v)
		if !spectrumContains(ev.spectrum, p.specs) {
			return true
		}
		if lim.MaxCandidates > 0 && len(cands) >= lim.MaxCandidates {
			overCap = true
			return false
		}
		c := Candidate{Key: ek, Primary: storage.Pointer(ev.primary)}
		if ev.hasCopy {
			c.Clustered = storage.Pointer(ev.clustered)
			c.HasCopy = true
		}
		cands = append(cands, c)
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	if cancelled {
		return nil, 0, ctx.Err()
	}
	if overCap {
		return nil, 0, fmt.Errorf("%w: more than %d candidates", ErrBudgetExceeded, lim.MaxCandidates)
	}
	return cands, scanned, nil
}

// CandidatesCtx returns the index candidates for the query, or an error
// wrapping ErrDegraded when the generation was frozen degraded.
func (g *Generation) CandidatesCtx(ctx context.Context, path *xpath.Path) ([]Candidate, int, error) {
	if g.health != nil {
		return nil, 0, g.health
	}
	p, err := g.ix.plan(path)
	if err != nil {
		return nil, 0, err
	}
	return g.candidates(ctx, p, Limits{})
}

// QueryGoverned is Index.QueryGoverned against the frozen snapshot: the
// same pruning + refinement pipeline, trace accounting, and governance,
// with every read served lock-free from the generation. Refinement
// always follows primary pointers — the clustered heap belongs to the
// live index and may be replaced mid-generation by a rebuild, while the
// primary heap is append-only and safe to share.
func (g *Generation) QueryGoverned(ctx context.Context, path *xpath.Path, tr *obs.Trace, lim Limits) (Result, error) {
	planStart := time.Now()
	p, err := g.ix.plan(path)
	if tr != nil {
		tr.Phase[obs.PhasePlan] += time.Since(planStart)
	}
	if err != nil {
		return Result{}, err
	}
	if g.health != nil {
		return g.ScanCount(ctx, p.tree, tr, lim, true)
	}
	probeStart := time.Now()
	var bt0 btree.Stats
	if tr != nil {
		bt0 = g.view.Stats()
	}
	cands, scanned, err := g.candidates(ctx, p, lim)
	if tr != nil {
		tr.Phase[obs.PhaseProbe] += time.Since(probeStart)
		d := g.view.Stats().Sub(bt0)
		tr.BTree = obs.BTreeDelta{
			PageReads:  d.PageReads,
			PageWrites: d.PageWrites,
			CacheHits:  d.CacheHits,
			Evictions:  d.Evictions,
		}
	}
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			// The frozen image failed to decode (pages were verified at
			// freeze, so this is exceptional); answer exactly via the scan
			// and record the corruption on the live index like the locked
			// query path does.
			g.ix.setHealth(err)
			return g.ScanCount(ctx, p.tree, tr, lim, true)
		}
		return Result{}, err
	}
	res := Result{Entries: g.entries, Scanned: scanned, Candidates: len(cands)}
	rq, rootAnchored := g.ix.refinementQuery(p.tree)
	nq, err := nok.Compile(rq, g.dict)
	if err != nil {
		return Result{}, err
	}
	var st0 storage.Stats
	if tr != nil {
		st0 = g.store.Stats()
	}
	res.Matched, res.Count, err = refine(ctx, g.workers, len(cands), nq, lim, tr, func(i int) (cur xmltree.Cursor, ref xmltree.Ref, ok bool, err error) {
		c := cands[i]
		if rootAnchored && c.Primary.Off() != 0 {
			return // a /-anchored query only matches document roots
		}
		if g.tombs.Has(c.Primary.Rec()) {
			return // tombstoned: entries may outlive the delete until rebuild
		}
		cur, ref, err = g.store.ReadSubtree(c.Primary)
		return cur, ref, true, err
	})
	if tr != nil {
		tr.Storage = tr.Storage.Add(storageDelta(g.store.Stats().Sub(st0)))
	}
	if err != nil {
		return Result{}, err
	}
	if tr != nil {
		tr.Entries, tr.Scanned, tr.Candidates = res.Entries, res.Scanned, res.Candidates
		tr.Matched, tr.Count = res.Matched, res.Count
	}
	return res, nil
}

// ExistsGoverned is Index.ExistsCtx against the frozen snapshot: lazy
// refinement, first hit stops the pool.
func (g *Generation) ExistsGoverned(ctx context.Context, path *xpath.Path) (bool, error) {
	p, err := g.ix.plan(path)
	if err != nil {
		return false, err
	}
	if g.health != nil {
		return g.ScanExists(ctx, p.tree)
	}
	cands, _, err := g.candidates(ctx, p, Limits{})
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			g.ix.setHealth(err)
			return g.ScanExists(ctx, p.tree)
		}
		return false, err
	}
	rq, rootAnchored := g.ix.refinementQuery(p.tree)
	nq, err := nok.Compile(rq, g.dict)
	if err != nil {
		return false, err
	}
	var found atomic.Bool
	err = par.Do(ctx, g.workers, len(cands), func(i int) error {
		if found.Load() {
			return nil
		}
		c := cands[i]
		if rootAnchored && c.Primary.Off() != 0 {
			return nil
		}
		if g.tombs.Has(c.Primary.Rec()) {
			return nil
		}
		cur, ref, err := g.store.ReadSubtree(c.Primary)
		if err != nil {
			return err
		}
		if nq.Exists(cur, ref) {
			found.Store(true)
			return errFoundMatch
		}
		return nil
	})
	if err != nil && !errors.Is(err, errFoundMatch) {
		return false, err
	}
	return found.Load(), nil
}

// ScanCount answers a query without the index by refining every live
// record of the frozen heap view, under the same governance as the
// indexed path. When markFallback is set the result and trace are
// flagged as a degraded-index fallback (the caller passes false for a
// deliberate scan, where it owns the flagging).
func (g *Generation) ScanCount(ctx context.Context, qt *xpath.QNode, tr *obs.Trace, lim Limits, markFallback bool) (Result, error) {
	nq, err := nok.Compile(qt, g.dict)
	if err != nil {
		return Result{}, err
	}
	var st0 storage.Stats
	if tr != nil {
		st0 = g.store.Stats()
	}
	res := Result{Fallback: markFallback}
	res.Matched, res.Count, err = refine(ctx, g.workers, g.store.NumRecords(), nq, lim, tr, func(i int) (cur xmltree.Cursor, ref xmltree.Ref, ok bool, err error) {
		if g.tombs.Has(uint32(i)) {
			return // tombstoned records are not part of the collection
		}
		cur, err = g.store.Cursor(uint32(i))
		return cur, 0, true, err
	})
	if tr != nil {
		if markFallback {
			tr.Fallback = true
		}
		tr.Storage = tr.Storage.Add(storageDelta(g.store.Stats().Sub(st0)))
	}
	if err != nil {
		return Result{}, err
	}
	if tr != nil {
		tr.Matched, tr.Count = res.Matched, res.Count
	}
	return res, nil
}

// ScanExists is the Exists counterpart of ScanCount.
func (g *Generation) ScanExists(ctx context.Context, qt *xpath.QNode) (bool, error) {
	nq, err := nok.Compile(qt, g.dict)
	if err != nil {
		return false, err
	}
	var found atomic.Bool
	err = par.Do(ctx, g.workers, g.store.NumRecords(), func(i int) error {
		if found.Load() || g.tombs.Has(uint32(i)) {
			return nil
		}
		cur, err := g.store.Cursor(uint32(i))
		if err != nil {
			return err
		}
		if nq.Exists(cur, 0) {
			found.Store(true)
			return errFoundMatch
		}
		return nil
	})
	if err != nil && !errors.Is(err, errFoundMatch) {
		return false, err
	}
	return found.Load(), nil
}
