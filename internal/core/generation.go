package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/obs"
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
	id        uint64                     // immutable after publish
	ix        *Index                     // immutable after publish (plan state is read-only and shared)
	view      *btree.View                // immutable after publish (nil when degraded or index-less)
	store     *storage.ReadView          // immutable after publish
	clustered *storage.ReadView          // immutable after publish (nil unless frozen by Clustered.Freeze)
	copies    map[storage.Pointer]uint32 // immutable after publish (with clustered)
	tombs     *storage.TombSet           // immutable after publish
	dict      *xmltree.Dict              // immutable after publish
	entries   int                        // immutable after publish
	health    error                      // immutable after publish (frozen at freeze time)

	refs      atomic.Int64
	onRelease func() // immutable after publish
}

// NewGeneration freezes the current state of store (and ix, which may be
// nil when no index exists) into a new Generation. The B-tree's part is a
// copy of its page table — the pages themselves are shared with the
// writer, who copies one before it first changes it — so a publish reads
// no file and cannot fail: if the index is degraded, the generation is
// published with that health problem recorded and answers queries through
// the exact scan fallback. (The fifth parameter was the previous
// generation, to share pages with; bench/fixload/ledger.go still passes
// one, and the ROADMAP's "Stop passing the dead arguments" drops it.)
//
// The caller receives the publisher's reference (refs = 1); onRelease
// runs once when the last reference is dropped.
func NewGeneration(id uint64, ix *Index, store *storage.Store, dict *xmltree.Dict, _ *Generation, onRelease func()) *Generation {
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
		g.health = ix.Health()
		if g.health == nil {
			if bt := ix.BTree(); bt != nil {
				g.view, _ = bt.FreezeView(nil) // the error is always nil, see FreezeView
				g.entries = g.view.Len()
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

// HasIndex reports whether the generation carries an index.
func (g *Generation) HasIndex() bool { return g.ix != nil }

// Store returns the frozen view of the primary heap.
func (g *Generation) Store() *storage.ReadView { return g.store }

// Tombs returns the frozen tombstone set.
func (g *Generation) Tombs() *storage.TombSet { return g.tombs }

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

// Freeze returns a generation over the index's current state for a
// caller that owns the index offline (experiments, benchmarks, tests).
// Mutations after Freeze are not visible; freeze again. The caller owns
// the returned reference and must Unpin it.
func (ix *Index) Freeze() *Generation {
	return NewGeneration(0, ix, ix.store, ix.dict, nil, nil)
}

// Covered reports whether the generation's index can answer the query.
func (g *Generation) Covered(path *xpath.Path) bool {
	return g.ix != nil && g.ix.Covered(path)
}

// candidates runs the pruning phase: a range scan over the feature keys
// of the frozen B-tree image, keeping entries whose eigenvalue range
// contains every twig's range. Keys sort by (label, λmax), so the entries
// that can are those from the largest of the twigs' λmax on in a label's
// partition: the root label's when it restricts the query, and otherwise
// every partition the tree holds (scanEveryLabel). Survivors are appended
// to buf[:0] — nil for a list the caller keeps, a pooled one (candPool) on
// the served path — and nothing else is allocated: keys and values are
// decoded where the scan reads them. scanned reports how many entries the
// scans touched. They observe ctx periodically and stop once
// lim.MaxCandidates is crossed; on any error whatever was collected is
// discarded.
func (g *Generation) candidates(ctx context.Context, p *queryPlan, lim Limits, buf []Candidate) ([]Candidate, int, error) {
	if p.empty {
		return nil, 0, nil
	}
	if g.view == nil {
		return nil, 0, fmt.Errorf("%w: B-tree view unavailable", ErrCorrupt)
	}
	sigma := p.feats[0].Max
	for _, f := range p.feats[1:] {
		sigma = max(sigma, f.Max)
	}
	cands := buf[:0]
	scanned := 0
	var stop error // why a scan callback ended its scan early, if it did
	visit := func(k, v []byte) bool {
		scanned++
		if scanned%1024 == 0 && ctx.Err() != nil {
			stop = ctx.Err()
			return false
		}
		ek := decodeKey(k)
		entry := Features{Min: ek.min, Max: ek.max}
		for _, f := range p.feats {
			if !entry.Contains(f) {
				return true
			}
		}
		ev, ok := decodeValue(v)
		if !ok {
			stop = errBadValue(k, v)
			return false
		}
		if !spectrumContains(ev.spectrum, p.specs) {
			return true
		}
		if lim.MaxCandidates > 0 && len(cands) >= lim.MaxCandidates {
			stop = fmt.Errorf("%w: more than %d candidates", ErrBudgetExceeded, lim.MaxCandidates)
			return false
		}
		cands = append(cands, Candidate{Primary: ev.primary})
		return true
	}
	var err error
	if p.labelOK {
		from, to := scanBounds(p.topLabel, sigma)
		err = g.view.Scan(from, to, visit)
	} else {
		var peeked int
		peeked, err = g.scanEveryLabel(sigma, visit)
		scanned += peeked
	}
	if err == nil {
		err = stop
	}
	if err != nil {
		return nil, 0, err
	}
	return cands, scanned, nil
}

// scanEveryLabel runs visit over the entries with λmax >= sigma of every
// label's partition, in key order, until visit returns false: one bounded
// scan per partition, and the first key past it names the next, so nothing
// else records which labels there are. peeked counts those keys.
func (g *Generation) scanEveryLabel(sigma float64, visit func(k, v []byte) bool) (peeked int, err error) {
	from, _ := scanBounds(0, sigma)
	label, more := uint32(0), true
	partition := func(k, v []byte) bool {
		l := binary.BigEndian.Uint32(k)
		if l == label {
			return visit(k, v)
		}
		if peeked++; l < label { // or the loop below need not end
			err = fmt.Errorf("%w: a key of label %d follows label %d", ErrCorrupt, l, label)
		}
		label, more = l, true
		return false
	}
	for more && err == nil {
		binary.BigEndian.PutUint32(from, label)
		more = false
		if scanErr := g.view.Scan(from, nil, partition); err == nil {
			err = scanErr
		}
	}
	return peeked, err
}

// candPool recycles the candidate lists of served queries, so a probe's
// allocations do not grow with its candidate count. A list grown past
// maxPooledCandidates (512 KB) is dropped rather than pooled: one huge
// query must not pin its buffer for good.
var candPool = sync.Pool{New: func() any { return new([]Candidate) }}

const maxPooledCandidates = 1 << 16

// recycle returns a pooled buffer, now backed by cands when the probe
// grew it. Nothing may read cands afterwards.
func recycle(buf *[]Candidate, cands []Candidate) {
	if cap(cands) > cap(*buf) {
		*buf = cands
	}
	if cap(*buf) <= maxPooledCandidates {
		candPool.Put(buf)
	}
}

// CandidatesCtx returns the index candidates for the query, or an error
// wrapping ErrDegraded when the generation was frozen degraded: the
// pruning promise — no false negatives — cannot be kept, so callers must
// scan instead.
func (g *Generation) CandidatesCtx(ctx context.Context, path *xpath.Path) ([]Candidate, int, error) {
	if g.health != nil {
		return nil, 0, g.health
	}
	p, err := g.ix.plan(path)
	if err != nil {
		return nil, 0, err
	}
	return g.candidates(ctx, p, Limits{}, nil)
}

// probe plans the query and runs the pruning phase. useScan reports that
// the index cannot answer — the generation was frozen degraded, or the
// frozen image failed to decode just now (pages are verified when Open
// reads them, so that is exceptional; the corruption is recorded on the
// live index)
// — and the caller must refine every record of p.tree instead, which can
// never miss a match. A non-nil tr gets the plan and probe wall times
// and the probe's B-tree delta. The candidates are appended to buf[:0].
func (g *Generation) probe(ctx context.Context, path *xpath.Path, tr *obs.Trace, lim Limits, buf []Candidate) (p *queryPlan, cands []Candidate, scanned int, useScan bool, err error) {
	planStart := time.Now()
	p, err = g.ix.plan(path)
	if tr != nil {
		tr.Phase[obs.PhasePlan] += time.Since(planStart)
	}
	if err != nil {
		return nil, nil, 0, false, err
	}
	if g.health != nil {
		return p, nil, 0, true, nil
	}
	probeStart := time.Now()
	var bt0 btree.Stats
	if tr != nil {
		bt0 = g.view.Stats()
	}
	cands, scanned, err = g.candidates(ctx, p, lim, buf)
	if tr != nil {
		tr.Phase[obs.PhaseProbe] += time.Since(probeStart)
		d := g.view.Stats().Sub(bt0)
		tr.BTree = obs.BTreeDelta{PageReads: d.PageReads, CacheHits: d.CacheHits}
	}
	if errors.Is(err, ErrCorrupt) {
		g.ix.setHealth(err)
		return p, nil, 0, true, nil
	}
	return p, cands, scanned, false, err
}

// fetchFunc resolves work item i of a refinement pass to the subtree to
// evaluate, or reports ok=false to skip it.
type fetchFunc func(i int) (cur xmltree.Cursor, ref xmltree.Ref, ok bool, err error)

// refinement compiles the per-candidate form of the planned query and
// returns the fetch over cands. Refinement reads the clustered copy when
// the generation holds one (Clustered.Freeze) and follows primary
// pointers otherwise.
func (g *Generation) refinement(p *queryPlan, cands []Candidate) (*nok.Query, fetchFunc, error) {
	rq, rootAnchored := g.ix.refinementQuery(p.tree)
	nq, err := nok.Compile(rq, g.dict)
	if err != nil {
		return nil, nil, err
	}
	return nq, func(i int) (cur xmltree.Cursor, ref xmltree.Ref, ok bool, err error) {
		c := cands[i]
		if rootAnchored && c.Primary.Off() != 0 {
			return // a /-anchored query only matches document roots
		}
		if g.tombs.Has(c.Primary.Rec()) {
			return // tombstoned: entries may outlive the delete until rebuild
		}
		if g.clustered == nil {
			cur, ref, err = g.store.ReadSubtree(c.Primary)
		} else if rec, copied := g.copies[c.Primary]; copied {
			cur, err = g.clustered.Cursor(rec)
		} else {
			err = fmt.Errorf("core: entry at %v has no clustered copy", c.Primary)
		}
		return cur, ref, true, err
	}, nil
}

// scanFetch is the fetch over every live record of the frozen heap view.
func (g *Generation) scanFetch(i int) (cur xmltree.Cursor, ref xmltree.Ref, ok bool, err error) {
	if g.tombs.Has(uint32(i)) {
		return // tombstoned records are not part of the collection
	}
	cur, err = g.store.Cursor(uint32(i))
	return cur, 0, true, err
}

// QueryGoverned runs the full pruning + refinement pipeline against the
// frozen snapshot and returns result statistics; every read is served
// lock-free from the generation, and the candidates are verified in key
// order on the calling goroutine, so the statistics — the heap's
// sequential/random split included — repeat exactly from the same state.
//
// A non-nil tr accumulates per-phase wall times — plan, B-tree probe,
// candidate fetch, NoK refinement — and the I/O each phase caused; a nil
// tr disables every timer and counter snapshot.
//
// Limits are enforced at the pipeline's natural checkpoints: the range
// scan stops once MaxCandidates is crossed, refinement charges every
// node visit to one budget of MaxRefineNodes, and the running match
// total is checked against MaxResults — each violation returns an error
// wrapping ErrBudgetExceeded. A cancellable ctx is additionally polled
// inside refinement (every few dozen node visits), so a deadline
// interrupts even the evaluation of a single large subtree. On a limit
// or deadline error a non-nil tr retains the phases that completed, so
// the caller can attribute where the budget went (the partial trace).
//
// When the index is degraded the answer comes from ScanCount with
// Fallback set: exact, only slower.
func (g *Generation) QueryGoverned(ctx context.Context, path *xpath.Path, tr *obs.Trace, lim Limits) (Result, error) {
	buf := candPool.Get().(*[]Candidate)
	p, cands, scanned, useScan, err := g.probe(ctx, path, tr, lim, *buf)
	// Deferred past refine: the fetch closure reads cands until then.
	defer recycle(buf, cands)
	if err != nil {
		return Result{}, err
	}
	if useScan {
		return g.ScanCount(ctx, p.tree, tr, lim, true)
	}
	res := Result{Entries: g.entries, Scanned: scanned, Candidates: len(cands)}
	nq, fetch, err := g.refinement(p, cands)
	if err != nil {
		return Result{}, err
	}
	res.Matched, res.Count, err = g.refine(ctx, len(cands), nq, lim, tr, fetch)
	if err != nil {
		return Result{}, err
	}
	if tr != nil {
		tr.Entries, tr.Scanned, tr.Candidates = res.Entries, res.Scanned, res.Candidates
	}
	return res, nil
}

// ExistsGoverned reports whether the query has at least one result,
// refining candidates lazily and stopping at the first hit. It observes
// ctx only (no Limits), and like QueryGoverned answers from the scan
// when the index is degraded.
func (g *Generation) ExistsGoverned(ctx context.Context, path *xpath.Path) (bool, error) {
	buf := candPool.Get().(*[]Candidate)
	p, cands, _, useScan, err := g.probe(ctx, path, nil, Limits{}, *buf)
	defer recycle(buf, cands) // after firstHit: the fetch closure reads cands
	if err != nil {
		return false, err
	}
	if useScan {
		return g.ScanExists(ctx, p.tree)
	}
	nq, fetch, err := g.refinement(p, cands)
	if err != nil {
		return false, err
	}
	return g.firstHit(ctx, len(cands), nq, fetch)
}

// ScanCount answers a query without the index by refining every live
// record of the frozen heap view, under the same governance as the
// indexed path — a degraded index must not turn a bounded query into an
// unbounded scan. When markFallback is set the result and trace are
// flagged as a degraded-index fallback (the caller passes false for a
// deliberate scan, where it owns the flagging); the pruning counters
// stay zero because no pruning happened.
func (g *Generation) ScanCount(ctx context.Context, qt *xpath.QNode, tr *obs.Trace, lim Limits, markFallback bool) (Result, error) {
	nq, err := nok.Compile(qt, g.dict)
	if err != nil {
		return Result{}, err
	}
	if tr != nil && markFallback {
		tr.Fallback = true
	}
	res := Result{Fallback: markFallback}
	res.Matched, res.Count, err = g.refine(ctx, g.store.NumRecords(), nq, lim, tr, g.scanFetch)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// ScanExists is the Exists counterpart of ScanCount.
func (g *Generation) ScanExists(ctx context.Context, qt *xpath.QNode) (bool, error) {
	nq, err := nok.Compile(qt, g.dict)
	if err != nil {
		return false, err
	}
	return g.firstHit(ctx, g.store.NumRecords(), nq, g.scanFetch)
}

// storageDelta converts a storage.Stats difference into the trace's
// subsystem-neutral delta form.
func storageDelta(d storage.Stats) obs.StorageDelta {
	return obs.StorageDelta{
		SeqReads:     d.SeqReads,
		RandomReads:  d.RandomReads,
		CachedReads:  d.CachedReads,
		BytesRead:    d.BytesRead,
		SubtreeReads: d.SubtreeReads,
		SubtreeBytes: d.SubtreeBytes,
	}
}

// refine is the refinement loop every counting query path shares: it
// evaluates nq over n work items in order and returns how many items
// matched and the total of their output counts. Governance is applied
// here: node visits are charged to the query's budget, and the running
// total is checked against MaxResults. ctx is checked before each item
// and once more at the end, so an expired context fails even a pass
// with nothing to do. A non-nil tr accumulates the fetch and refinement
// wall time, the visit count and the heap I/O of the pass — kept on an
// error, that is the partial trace — and on success the match counts; a
// nil tr reads no clock.
func (g *Generation) refine(ctx context.Context, n int, nq *nok.Query, lim Limits, tr *obs.Trace, fetch fetchFunc) (matched, count int, err error) {
	bud := refineBudget(ctx, lim)
	var st0 storage.Stats
	if tr != nil {
		st0 = g.store.Stats()
	}
	for i := 0; i < n && err == nil; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		var fetchStart, refineStart time.Time
		if tr != nil {
			fetchStart = time.Now()
		}
		cur, ref, ok, ferr := fetch(i)
		if ferr != nil || !ok {
			err = ferr
			continue
		}
		if tr != nil {
			refineStart = time.Now()
		}
		cnt, nodes, everr := nq.EvalBudget(cur, ref, bud)
		if tr != nil {
			tr.Phase[obs.PhaseFetch] += refineStart.Sub(fetchStart)
			tr.Phase[obs.PhaseRefine] += time.Since(refineStart)
			tr.NodesVisited += int64(nodes)
		}
		switch {
		case everr != nil:
			err = budgetErr(everr)
		case cnt > 0:
			matched++
			count += cnt
			err = errResultCap(count, lim)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if tr != nil {
		tr.Storage = tr.Storage.Add(storageDelta(g.store.Stats().Sub(st0)))
		if err == nil {
			tr.Matched, tr.Count = matched, count
		}
	}
	return matched, count, err
}

// firstHit is the refinement loop of the Exists paths: it reports
// whether any of the n work items matches nq, stopping at the first
// that does. Like refine it checks ctx before each item and at the end.
func (g *Generation) firstHit(ctx context.Context, n int, nq *nok.Query, fetch fetchFunc) (bool, error) {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		cur, ref, ok, err := fetch(i)
		if err != nil {
			return false, err
		}
		if ok && nq.Exists(cur, ref) {
			return true, nil
		}
	}
	return false, ctx.Err()
}
