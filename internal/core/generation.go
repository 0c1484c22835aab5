package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
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
// table, the tombstone set as of the freeze, and the (shared)
// query-planning state of the index it was frozen from. Queries against a
// Generation take no lock but the plan cache's, for one map lookup — not
// the B-tree mutex, not the store mutex — so any number of goroutines can
// query one concurrently while writers prepare and publish the next
// generation.
//
// Generations are reference counted: the publisher holds one reference
// (released when the next generation replaces it), and every pinned
// reader holds one more. When the count reaches zero the heap view lets
// go of the mapping it reads in place, the release hook runs and the
// generation's memory becomes collectable; the heap file itself is shared
// with the live store and is never reclaimed per generation.
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
				g.entries = ix.Entries()
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

// Unpin drops a reference. The last drop releases the heap views, so the
// mapping they read goes once no newer view holds it, and runs the
// release hook.
func (g *Generation) Unpin() {
	if g.refs.Add(-1) != 0 {
		return
	}
	g.store.Release()
	if g.clustered != nil {
		g.clustered.Release()
	}
	if g.onRelease != nil {
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

// alikeSpan is a stretch [lo, hi) of a probe's candidates that one chunk
// gave, at least two, whose units agree at least as deeply as the query's
// refinement twig is high: one match answers all of them.
type alikeSpan struct{ lo, hi int32 }

// candidates runs the pruning phase: a range scan over the chunks of the
// frozen B-tree image, keeping the postings whose eigenvalue range contains
// every twig's range and whose chunk's pair sketch holds every bit of the
// query's. Keys sort by (label, σ), so the entries that can are those from
// the largest of the twigs' σ on in a label's partition: the root label's
// when it restricts the query, and otherwise every partition the tree
// holds (scanEveryLabel). A chunk's key is decoded and its σ and its
// sketch tested once, then its postings in one loop of one delta step
// each. Survivors are appended to buf[:0] — nil for a list the caller
// keeps, a pooled one (probePool) on the served path — and nothing else is
// allocated: keys and values are decoded where the scan reads them. A
// non-nil spans gets, appended to (*spans)[:0], the stretches of the
// survivors one match may answer (alikeSpan). scanned reports how many
// postings the scans touched, and pruned how many of them σ keeps but the
// sketch drops. The scans observe ctx once a chunk takes the count past a
// multiple of 1024 and stop once lim.MaxCandidates is crossed; on any
// error whatever was collected is discarded.
func (g *Generation) candidates(ctx context.Context, p *queryPlan, lim Limits, buf []Candidate, spans *[]alikeSpan) (cands []Candidate, scanned, pruned int, err error) {
	if p.empty {
		return nil, 0, 0, nil
	}
	if g.view == nil {
		return nil, 0, 0, fmt.Errorf("%w: B-tree view unavailable", ErrCorrupt)
	}
	sigma := p.feats[0].Sigma
	for _, f := range p.feats[1:] {
		sigma = max(sigma, f.Sigma)
	}
	cands = buf[:0]
	if spans != nil {
		*spans = (*spans)[:0]
	}
	var stop error // why a scan callback ended its scan early, if it did
	visit := func(k, v []byte) bool {
		if len(k) != keySize {
			stop = errBadKey(k)
			return false
		}
		r := openPostings(keyPointer(k), v)
		if !r.ok() {
			stop = errBadValue(k, v)
			return false
		}
		n := r.count()
		if scanned>>10 != (scanned+n)>>10 && ctx.Err() != nil {
			stop = ctx.Err()
			return false
		}
		scanned += n
		entry := Features{Sigma: decodeKey(k).sigma}
		for _, f := range p.feats {
			if !entry.Contains(f) {
				return true
			}
		}
		if r.sketch&p.sketch != p.sketch {
			pruned += n
			return true
		}
		lo := len(cands)
		for r.next() {
			if lim.MaxCandidates > 0 && len(cands) >= lim.MaxCandidates {
				stop = fmt.Errorf("%w: more than %d candidates", ErrBudgetExceeded, lim.MaxCandidates)
				return false
			}
			cands = append(cands, Candidate{Primary: r.ptr})
		}
		if !r.ok() {
			stop = errBadValue(k, v)
			return false
		}
		if spans != nil && p.share >= 0 && r.alike >= p.share && len(cands)-lo > 1 {
			*spans = append(*spans, alikeSpan{int32(lo), int32(len(cands))})
		}
		return true
	}
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
		return nil, 0, 0, err
	}
	return cands, scanned, pruned, nil
}

// scanEveryLabel runs visit over the entries with σ >= sigma of every
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

// probeBuf is what a served query's probe fills: its candidates and their
// alike spans.
type probeBuf struct {
	cands []Candidate
	spans []alikeSpan
}

// probePool recycles the probe buffers of served queries, so a probe's
// allocations do not grow with its candidate count. A buffer grown past
// maxPooledCandidates candidates (512 KB) is dropped rather than pooled:
// one huge query must not pin it for good.
var probePool = sync.Pool{New: func() any { return new(probeBuf) }}

const maxPooledCandidates = 1 << 16

// recycle returns a pooled buffer, now backed by cands when the probe
// grew it. Nothing may read cands or the spans afterwards.
func recycle(buf *probeBuf, cands []Candidate) {
	if cap(cands) > cap(buf.cands) {
		buf.cands = cands
	}
	if cap(buf.cands) <= maxPooledCandidates {
		probePool.Put(buf)
	}
}

// CandidatesPrepared returns the index candidates of a prepared query, in
// a list the caller keeps, and how many postings the probe scanned. When
// the index cannot answer — the generation was frozen degraded, or the
// probe found it corrupt just now — it returns the index's health, an
// error wrapping ErrDegraded: the pruning promise, no false negatives,
// cannot be kept, so the caller must scan instead.
func (g *Generation) CandidatesPrepared(ctx context.Context, pq *Prepared) ([]Candidate, int, error) {
	cands, scanned, _, useScan, err := g.probe(ctx, pq, nil, Limits{}, &probeBuf{})
	if useScan {
		if g.health != nil {
			return nil, 0, g.health
		}
		return nil, 0, g.ix.Health()
	}
	return cands, scanned, err
}

// CandidatesCtx is CandidatesPrepared for a query planned afresh. It is
// the one path-taking entry left: bench/fixload/ledger.go calls it, and it
// goes when the ledger reads the product's trace (ROADMAP 7(e), "Make the
// ledger measure the product").
func (g *Generation) CandidatesCtx(ctx context.Context, path *xpath.Path) ([]Candidate, int, error) {
	pq, err := g.PreparePath(path, nil)
	if err != nil {
		return nil, 0, err
	}
	return g.CandidatesPrepared(ctx, pq)
}

// probe runs the pruning phase of a prepared query. useScan reports that
// the index cannot answer — the generation was frozen degraded, or the
// frozen image failed to decode just now (pages are verified when Open
// reads them, so that is exceptional; the corruption is recorded on the
// live index) — and the caller must refine every record of pq's tree
// instead, which can never miss a match. A non-nil tr gets the probe wall
// time and the probe's B-tree delta. The candidates are appended to
// buf.cands[:0], and their alike spans to buf.spans[:0]; scanned and pruned
// are candidates'.
func (g *Generation) probe(ctx context.Context, pq *Prepared, tr *obs.Trace, lim Limits, buf *probeBuf) (cands []Candidate, scanned, pruned int, useScan bool, err error) {
	if !pq.Covered() {
		return nil, 0, 0, false, pq.errNotCovered()
	}
	if g.health != nil {
		return nil, 0, 0, true, nil
	}
	probeStart := time.Now()
	var bt0 btree.Stats
	if tr != nil {
		bt0 = g.view.Stats()
	}
	cands, scanned, pruned, err = g.candidates(ctx, pq.plan, lim, buf.cands, &buf.spans)
	if tr != nil {
		tr.Phase[obs.PhaseProbe] += time.Since(probeStart)
		d := g.view.Stats().Sub(bt0)
		tr.BTree = obs.BTreeDelta{PageReads: d.PageReads, CacheHits: d.CacheHits}
	}
	if errors.Is(err, ErrCorrupt) {
		g.ix.setHealth(err)
		return nil, 0, 0, true, nil
	}
	return cands, scanned, pruned, false, err
}

// workItems is what a refinement pass walks: n candidates of a probe, in
// stretches of which one match answers every live one (spans), or, with
// scan set, the n records of the frozen heap.
type workItems struct {
	n            int
	cands        []Candidate
	spans        []alikeSpan
	rootAnchored bool // a /-anchored query only matches document roots
	scan         bool
}

// candidateItems returns the work of refining cands, whose alike spans are
// spans, for the prepared query.
func candidateItems(pq *Prepared, cands []Candidate, spans []alikeSpan) workItems {
	return workItems{n: len(cands), cands: cands, spans: spans, rootAnchored: pq.rootAnchored}
}

// scanItems returns the work of refining every record of the frozen heap.
func (g *Generation) scanItems() workItems {
	return workItems{n: g.store.NumRecords(), scan: true}
}

// fetch resolves work item i of a refinement pass to the subtree to
// evaluate, reading the heap through the pass's rd, or reports ok=false
// to skip it: tombstoned records are not part of the collection, and
// their entries may outlive the delete until a rebuild. A candidate is
// read from the clustered copy when the generation holds one
// (Clustered.Freeze), and by following its primary pointer otherwise.
func (g *Generation) fetch(rd *storage.ReadPass, w workItems, i int) (cur xmltree.Cursor, ref xmltree.Ref, ok bool, err error) {
	if !g.live(w, i) {
		return
	}
	if w.scan {
		cur, err = rd.Cursor(uint32(i))
		return cur, 0, true, err
	}
	c := w.cands[i]
	if g.clustered == nil {
		cur, ref, err = rd.ReadSubtree(c.Primary)
	} else if rec, copied := g.copies[c.Primary]; copied {
		cur, err = g.clustered.Cursor(rec)
	} else {
		err = fmt.Errorf("core: entry at %v has no clustered copy", c.Primary)
	}
	return cur, ref, true, err
}

// live reports whether work item i is to be refined: a record not
// tombstoned, and for a /-anchored query a candidate at a record's root.
func (g *Generation) live(w workItems, i int) bool {
	if w.scan {
		return !g.tombs.Has(uint32(i))
	}
	p := w.cands[i].Primary
	return !(w.rootAnchored && p.Off() != 0) && !g.tombs.Has(p.Rec())
}

// spanCursor walks the alike spans of a refinement pass beside its items.
type spanCursor struct {
	spans []alikeSpan
	next  int // the first span that does not end at or before the item
}

// at returns the end of the alike span item i lies in, and 0 when it lies
// in none. Items are asked about in ascending order.
func (sc *spanCursor) at(i int) int {
	for sc.next < len(sc.spans) && int(sc.spans[sc.next].hi) <= i {
		sc.next++
	}
	if sc.next < len(sc.spans) && int(sc.spans[sc.next].lo) <= i {
		return int(sc.spans[sc.next].hi)
	}
	return 0
}

// QueryPrepared runs the full pruning + refinement pipeline of a
// prepared query against the frozen snapshot and returns result
// statistics; every read is served lock-free from the generation, and the
// candidates are verified in key order on the calling goroutine, so the
// statistics — the heap's sequential/random split included — repeat
// exactly from the same state. A query Covered rejects returns an error
// wrapping ErrNotCovered.
//
// A non-nil tr accumulates per-phase wall times — B-tree probe, candidate
// fetch, NoK refinement — and the I/O each phase caused; a nil tr
// disables every timer and counter snapshot.
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
func (g *Generation) QueryPrepared(ctx context.Context, pq *Prepared, tr *obs.Trace, lim Limits) (Result, error) {
	buf := probePool.Get().(*probeBuf)
	cands, scanned, pruned, useScan, err := g.probe(ctx, pq, tr, lim, buf)
	// Deferred past refine, which reads cands and the spans until then.
	defer recycle(buf, cands)
	if err != nil {
		return Result{}, err
	}
	if useScan {
		if tr != nil {
			tr.Fallback = true
		}
		res, err := g.ScanCount(ctx, pq.tree, tr, lim)
		res.Fallback = err == nil
		return res, err
	}
	res := Result{Entries: g.entries, Scanned: scanned, Candidates: len(cands), SketchPruned: pruned}
	var distinct distinctFunc
	if pq.nested {
		distinct = distinctOutputs(cands)
	}
	res.Matched, res.Count, res.SharedMatches, err = g.refine(ctx, candidateItems(pq, cands, buf.spans), pq.refine, lim, tr, distinct)
	if err != nil {
		return Result{}, err
	}
	if tr != nil {
		tr.Entries, tr.Scanned, tr.Candidates, tr.SketchPruned = res.Entries, res.Scanned, res.Candidates, res.SketchPruned
	}
	return res, nil
}

// ExistsPrepared reports whether a prepared query has at least one result,
// refining candidates lazily and stopping at the first hit. It observes
// ctx only (no Limits), and like QueryPrepared answers from the scan
// when the index is degraded.
func (g *Generation) ExistsPrepared(ctx context.Context, pq *Prepared) (bool, error) {
	buf := probePool.Get().(*probeBuf)
	cands, _, _, useScan, err := g.probe(ctx, pq, nil, Limits{}, buf)
	defer recycle(buf, cands) // after firstHit, which reads cands and the spans
	if err != nil {
		return false, err
	}
	if useScan {
		return g.ScanExists(ctx, pq.tree)
	}
	return g.firstHit(ctx, candidateItems(pq, cands, buf.spans), pq.refine)
}

// ScanCount answers a query without the index by refining every live
// record of the frozen heap view, under the same governance as the
// indexed path — a degraded index must not turn a bounded query into an
// unbounded scan. The pruning counters stay zero because no pruning
// happened; a caller that scans in place of a degraded index sets the
// result's and the trace's Fallback itself.
func (g *Generation) ScanCount(ctx context.Context, qt *xpath.QNode, tr *obs.Trace, lim Limits) (Result, error) {
	nq, err := nok.Compile(qt, g.dict)
	if err != nil {
		return Result{}, err
	}
	var res Result
	res.Matched, res.Count, _, err = g.refine(ctx, g.scanItems(), nq, lim, tr, nil)
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
	return g.firstHit(ctx, g.scanItems(), nq)
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

// distinctFunc returns how many of the output bindings outs, which work
// item i reached from its root at ref, no earlier item bound.
type distinctFunc func(i int, ref xmltree.Ref, outs []xmltree.Ref) int

// distinctOutputs is the distinctFunc of candidates that nest (a
// Prepared's nested): it remembers every output binding by its position in
// the primary heap. A clustered copy's offsets are relative to the
// candidate's root, whose primary offset then rebases them.
func distinctOutputs(cands []Candidate) distinctFunc {
	seen := make(map[storage.Pointer]struct{})
	return func(i int, ref xmltree.Ref, outs []xmltree.Ref) (n int) {
		p := cands[i].Primary
		for _, o := range outs {
			at := storage.MakePointer(p.Rec(), p.Off()+uint32(o-ref))
			if _, dup := seen[at]; !dup {
				seen[at] = struct{}{}
				n++
			}
		}
		return n
	}
}

// ctxPollItems is how many work items a refinement loop walks between
// two polls of its context. The matcher's budget polls it every 64 node
// visits as well, so a deadline is noticed within 64 items or 64 visits,
// whichever comes first, and never leaves a pass unchecked: the loops
// poll once more at the end.
const ctxPollItems = 64

// ctxDone is the refinement loops' poll: ctx.Err(), or
// context.DeadlineExceeded once ctx's deadline has passed. A context turns
// done only when the runtime's timer goroutine cancels it, and on a loaded
// machine that goroutine may not have run yet when a pass of thousands of
// items ends; one clock read per ctxPollItems items keeps the deadline
// without waiting for it.
func ctxDone(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// refine is the refinement loop every counting query path shares: it
// evaluates nq over the work items w in order and returns how many items
// matched and the total of their output counts — with a non-nil distinct,
// of the output bindings no earlier item bound. The items share one
// matcher pass and one heap read pass, so an item costs only its fetch
// and its match: node visits are charged to the pass's budget of
// MaxRefineNodes, which polls ctx, and the running total is checked
// against MaxResults. In an alike span the first live item is matched and
// every later live one takes its (matched, count) with no visit, and no
// fetch but from a clustered copy; shared counts those. ctx is also polled
// (ctxDone) every ctxPollItems items and once more at the end, so an
// expired context fails even a pass with nothing to do. A non-nil tr
// accumulates the fetch and refinement wall time, the visit count and the
// heap I/O of the pass — kept on an error, that is the partial trace — and
// on success the match counts; a nil tr reads no clock. The heap counters reach the store when
// the read pass flushes, before tr reads them. The matcher walks records
// in the heap's mapping, so the pass runs under storage.GuardFault: a page
// truncated away under it is a read error.
func (g *Generation) refine(ctx context.Context, w workItems, nq *nok.Query, lim Limits, tr *obs.Trace, distinct distinctFunc) (matched, count, shared int, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer storage.GuardFault(&err)
	pass := nq.NewPass(ctx, lim.MaxRefineNodes)
	defer pass.Release()
	var st0 storage.Stats
	if tr != nil {
		st0 = g.store.Stats()
	}
	rd := g.store.Pass()
	defer rd.Flush() // a fault panics past the Flush below
	var outs []xmltree.Ref
	sc := spanCursor{spans: w.spans}
	// answered: the items before it whose span's first live item has been
	// matched, answer its count.
	answered, answer := 0, 0
	for i := 0; i < w.n && err == nil; i++ {
		if i%ctxPollItems == 0 {
			if err = ctxDone(ctx); err != nil {
				break
			}
		}
		if i < answered {
			if g.live(w, i) {
				if g.clustered != nil {
					// A clustered copy is read all the same: the copies lie
					// back to back, and one passed over would turn the next
					// read into a seek.
					if _, _, _, err = g.fetch(&rd, w, i); err != nil {
						continue
					}
				}
				shared++
				if answer > 0 {
					matched++
					count += answer
					err = errResultCap(count, lim)
				}
			}
			continue
		}
		var fetchStart, refineStart time.Time
		if tr != nil {
			fetchStart = time.Now()
		}
		cur, ref, ok, ferr := g.fetch(&rd, w, i)
		if ferr != nil || !ok {
			err = ferr
			continue
		}
		if tr != nil {
			refineStart = time.Now()
		}
		var cnt, nodes int
		var everr error
		if distinct == nil {
			cnt, nodes, everr = pass.EvalBudget(cur, ref)
		} else {
			outs, nodes, everr = pass.AppendOutputs(cur, ref, outs[:0])
			cnt = len(outs)
		}
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
			if distinct != nil {
				cnt = distinct(i, ref, outs)
			}
			count += cnt
			err = errResultCap(count, lim)
		}
		if end := sc.at(i); end > 0 {
			answered, answer = end, cnt
		}
	}
	if err == nil {
		err = ctxDone(ctx)
	}
	if tr != nil {
		rd.Flush()
		tr.Storage = tr.Storage.Add(storageDelta(g.store.Stats().Sub(st0)))
		if err == nil {
			tr.Matched, tr.Count, tr.SharedMatches = matched, count, shared
		}
	}
	return matched, count, shared, err
}

// firstHit is the refinement loop of the Exists paths: it reports
// whether any of the work items w matches nq, stopping at the first
// that does, and passing over the rest of an alike span once its first
// live item fails. Like refine it shares one matcher pass — unlimited, but
// polling ctx every 64 node visits — and one heap read pass across the
// items, polls ctx (ctxDone) every ctxPollItems items and at the end, and
// runs under storage.GuardFault.
func (g *Generation) firstHit(ctx context.Context, w workItems, nq *nok.Query) (hit bool, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer storage.GuardFault(&err)
	pass := nq.NewPass(ctx, 0)
	defer pass.Release()
	rd := g.store.Pass()
	defer rd.Flush()
	sc := spanCursor{spans: w.spans}
	failed := 0 // the items before it are in a span whose first live item failed
	for i := 0; i < w.n; i++ {
		if i%ctxPollItems == 0 {
			if err := ctxDone(ctx); err != nil {
				return false, err
			}
		}
		if i < failed {
			continue
		}
		cur, ref, ok, err := g.fetch(&rd, w, i)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		if hit, err := pass.Exists(cur, ref); hit || err != nil {
			return hit, err
		}
		failed = sc.at(i)
	}
	return false, ctxDone(ctx)
}
