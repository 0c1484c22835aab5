package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/xpath"
)

// The plan cache. Algorithm 2 starts every query by deriving features
// from its text: parse, //-decomposition, pattern graph, skew matrix,
// eigenvalues, and the compile of the refinement matcher. All of that is
// a function of the text and of four things the index holds: its options
// and value hasher, fixed when it is built, and its label dictionary and
// edge encoder, which only grow — a label's ID and a label pair's weight
// are fixed when first seen. So the lengths of the last two identify
// their contents, and a prepared query stays exact while both lengths
// are what they were before it was planned.
//
// Length, and not whether the plan's own lookups still succeed, is the
// test: shrinkToVerified keeps a subpattern only while certain label
// pairs are absent from the encoder, so a new pair can change a plan all
// of whose lookups succeeded, and a new label can turn an empty plan into
// a real one.
//
// A rebuild makes a new Index, whose cache starts empty; a publish does
// not touch it.

// planCacheSize bounds how many prepared queries one index keeps. When
// the map is full, inserting a new text evicts an arbitrary entry.
const planCacheSize = 256

// Prepared is one query text parsed, planned and compiled against an
// index: the query tree, the probe's plan and the refinement matcher. It
// is immutable once published, shared by every generation of the index
// that prepared it, and valid on no other index.
type Prepared struct {
	tree *xpath.QNode // immutable after publish
	// plan is nil when the query is deeper than the index's depth limit
	// (or there is no index): it is then answered by scan.
	plan         *queryPlan // immutable after publish
	refine       *nok.Query // immutable after publish (the per-candidate form, refinementQuery)
	rootAnchored bool       // immutable after publish (candidates must be document roots)
	// nested is set when two candidates can bind one output node: on a
	// depth-limited index, whose candidates nest, a query that reaches its
	// output through a // step below the root (nestedOutput).
	nested bool // immutable after publish
	// dictLen and encLen are the dictionary's and the encoder's lengths
	// read before planning; the cache serves the entry only while both
	// still read the same.
	dictLen, encLen int // immutable after publish
}

// Tree returns the query tree, for the scan paths.
func (pq *Prepared) Tree() *xpath.QNode { return pq.tree }

// Covered reports whether the index can answer the query: it has an
// index and the query is within its depth limit.
func (pq *Prepared) Covered() bool { return pq.plan != nil }

// errNotCovered is the error the index-only paths return for a query
// Covered rejects.
func (pq *Prepared) errNotCovered() error {
	return fmt.Errorf("%w: %s", ErrNotCovered, pq.tree)
}

// PreparePath returns path prepared for this generation, planned and
// compiled afresh: it bypasses the plan cache, so a caller that prepares
// every query charges planning to every query, as the paper's experiments
// do. A non-nil tr gets the plan wall time. Without an index the query is
// prepared for the scan: Covered reports false.
func (g *Generation) PreparePath(path *xpath.Path, tr *obs.Trace) (*Prepared, error) {
	if g.ix == nil {
		return &Prepared{tree: path.Tree()}, nil
	}
	return g.ix.newPrepared(path, tr)
}

// newPrepared plans and compiles path against the index's current
// dictionary and encoder, reading their lengths first. A non-nil tr gets
// the plan wall time.
func (ix *Index) newPrepared(path *xpath.Path, tr *obs.Trace) (*Prepared, error) {
	start := time.Now()
	defer func() {
		if tr != nil {
			tr.Phase[obs.PhasePlan] += time.Since(start)
		}
	}()
	qt := path.Tree()
	pq := &Prepared{tree: qt, dictLen: ix.dict.Len(), encLen: ix.enc.Len()}
	p, err := ix.plan(qt)
	if errors.Is(err, ErrNotCovered) {
		return pq, nil // answered by scan
	}
	if err != nil {
		return nil, err
	}
	rq, rootAnchored := ix.refinementQuery(qt)
	nq, err := nok.Compile(rq, ix.dict)
	if err != nil {
		return nil, err
	}
	nested, _ := nestedOutput(rq)
	pq.plan, pq.refine, pq.rootAnchored, pq.nested = p, nq, rootAnchored, nested && ix.opts.DepthLimit > 0
	p.share = shareHeight(rq)
	return pq, nil
}

// shareHeight returns the height of the refinement twig at n when every
// unit of a chunk whose units agree that deeply answers it alike — all of
// its steps, the leading one included, are child steps, so its candidates
// do not nest, and it has no value leaf — and -1 otherwise.
func shareHeight(n *xpath.QNode) int {
	if n.Axis != xpath.Child || n.IsValue {
		return -1
	}
	h := 0
	for _, c := range n.Children {
		ch := shareHeight(c)
		if ch < 0 {
			return -1
		}
		h = max(h, ch+1)
	}
	return h
}

// nestedOutput reports whether the path from n down to the query's output
// node takes a descendant step; ok is false when the output node is not
// in n's subtree.
func nestedOutput(n *xpath.QNode) (nested, ok bool) {
	if n.Output {
		return false, true
	}
	for _, c := range n.Children {
		if nested, ok := nestedOutput(c); ok {
			return nested || c.Axis == xpath.Descendant, true
		}
	}
	return false, false
}

// prepared returns expr prepared against the index: the cached entry
// when one exists and the dictionary and encoder have not grown since it
// was planned, otherwise a fresh one, which it caches. Parse and plan
// errors are returned, not cached. A non-nil tr gets the parse and plan
// wall times of a miss, or PlanCached on a hit.
func (ix *Index) prepared(expr string, tr *obs.Trace) (*Prepared, error) {
	dictLen, encLen := ix.dict.Len(), ix.enc.Len()
	ix.plansMu.Lock()
	pq := ix.plans[expr]
	ix.plansMu.Unlock()
	if pq != nil && pq.dictLen == dictLen && pq.encLen == encLen {
		obs.Default().ObservePlanCache(true)
		if tr != nil {
			tr.PlanCached = true
		}
		return pq, nil
	}
	obs.Default().ObservePlanCache(false)
	path, err := parse(expr, tr)
	if err != nil {
		return nil, err
	}
	if pq, err = ix.newPrepared(path, tr); err != nil {
		return nil, err
	}
	ix.plansMu.Lock()
	defer ix.plansMu.Unlock()
	if _, ok := ix.plans[expr]; !ok && len(ix.plans) >= planCacheSize {
		for k := range ix.plans {
			delete(ix.plans, k)
			break
		}
	}
	if ix.plans == nil {
		ix.plans = make(map[string]*Prepared)
	}
	ix.plans[expr] = pq
	return pq, nil
}

// parse is xpath.Parse, timed into a non-nil tr's parse phase.
func parse(expr string, tr *obs.Trace) (*xpath.Path, error) {
	start := time.Now()
	path, err := xpath.Parse(expr)
	if tr != nil {
		tr.Phase[obs.PhaseParse] += time.Since(start)
	}
	return path, err
}

// Prepare returns expr prepared for this generation: through its index's
// plan cache, or, without an index, parsed for the scan. A non-nil tr
// gets the parse and plan wall times of the work done, and PlanCached
// when the cache answered.
func (g *Generation) Prepare(expr string, tr *obs.Trace) (*Prepared, error) {
	if g.ix != nil {
		return g.ix.prepared(expr, tr)
	}
	path, err := parse(expr, tr)
	if err != nil {
		return nil, err
	}
	return g.PreparePath(path, tr)
}
