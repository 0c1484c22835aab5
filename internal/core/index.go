package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fix-index/fix/internal/bisim"
	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/matrix"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// ErrNotCovered reports that a query is deeper than the index's depth
// limit, so the index cannot be used for it (paper §4.4).
var ErrNotCovered = errors.New("core: query deeper than index depth limit")

// ErrCorrupt is the B-tree's corruption error, re-exported so callers of
// the core package can test for it without importing internal/btree.
var ErrCorrupt = btree.ErrCorrupt

// ErrDegraded reports that the index cannot be trusted — corruption was
// detected, or the index is stale relative to the primary store — and
// queries are being served by the scan fallback until a rebuild.
var ErrDegraded = errors.New("core: index degraded")

// Options configures index construction.
type Options struct {
	// DepthLimit is the subpattern depth limit L of Algorithm 1. Zero
	// indexes each document as a single entry (the collection scenario);
	// positive L enumerates one depth-L subpattern per element
	// (Theorem 4), the large-document scenario.
	DepthLimit int
	// Values enables the integrated value index (§4.6): text nodes are
	// hashed into (α, α+β] and indexed as leaf labels.
	Values bool
	// Beta is the value-hash range β; default 10 (the paper's DBLP
	// setting).
	Beta uint32
	// EdgeBudget caps the bisimulation graph size for eigenvalue
	// computation; larger subpatterns fall back to the artificial
	// [-Inf,+Inf] range. Default 3000 edges, as in the paper (§6.1).
	EdgeBudget int
	// PageSize is the B-tree's page size; zero picks the default.
	PageSize int
	// NoRootLabel disables the root-label component of the pruning test
	// (query planning falls back to a feature-only full scan). It exists
	// for the ablation study of the label feature (paper §3.4).
	NoRootLabel bool
	// Workers bounds the worker pool that parallelizes per-record feature
	// extraction during Build; queries do not use it.
	// Zero (the default) means one worker per available CPU (GOMAXPROCS);
	// 1 forces fully sequential execution. The index bytes produced by
	// Build are identical for every Workers value. Workers is a runtime
	// tuning knob: it is not persisted with the index, so a reopened
	// index runs with the default until set again.
	Workers int
	// PaperPruning selects the paper's literal pruning bound: the σmax
	// of the (canonicalized) query pattern. That bound can produce rare
	// false negatives — a match is a homomorphism, and even injective
	// images may gain edges that LOWER σmax, violating the induced-
	// subgraph premise of Theorem 3 — so it is off by default. The
	// default bound is provably complete: the maximum of the ≤3-vertex
	// induced bound and the σmax of the largest subpattern whose label
	// pairs certify that no extra image edges can exist. The experiments
	// run both; see DESIGN.md and EXPERIMENTS.md.
	PaperPruning bool
	// Dir, when non-empty, stores the B-tree in files under this
	// directory; otherwise everything index-side lives in memory files.
	Dir string
}

func (o *Options) setDefaults() {
	if o.Beta == 0 {
		o.Beta = 10
	}
	if o.EdgeBudget == 0 {
		o.EdgeBudget = 3000
	}
}

// Index is a FIX index over one primary store: it builds, persists,
// maintains and health-checks the B-tree and holds the query-planning
// state. Queries run on a Generation frozen from it (NewGeneration,
// Freeze), never on the Index itself.
type Index struct {
	opts  Options
	store *storage.Store
	dict  *xmltree.Dict
	bt    *btree.Tree
	enc   *matrix.EdgeEncoder
	vh    valueHasher

	// entries counts the postings — what the paper's metrics call the
	// index entries — which the B-tree, holding chunks of them, does not.
	// fix.meta records it; maintenance moves it under the database's write
	// lock, and Entries reads it under none.
	entries     atomic.Int64
	oversize    int
	maxDocDepth int
	buildTime   time.Duration
	buildStats  BuildStats
	// caughtUp counts the operations Open brought the index up to the
	// heap with (CaughtUp).
	caughtUp int
	// units keeps the records the latest appends indexed or read, which
	// the next appends' comparisons mostly need (unitReader): 256 KB of
	// them, and the latest one larger than that; nil until the first
	// append, and only the writer touches it.
	units *unitReader
	// shapes holds the features of the shapes the index has extracted
	// (shapes.go); empty when the index is built or opened.
	shapes shapeTable

	// healthMu serializes health transitions because concurrent queries
	// may detect corruption simultaneously. It is a leaf lock: never
	// held across I/O or while taking another lock (lockcheck: leaf).
	healthMu sync.Mutex
	// health is the first corruption or staleness problem observed, set
	// at Open time or by a query-time page read; nil means healthy. Once
	// set, queries answer from the scan fallback. Guarded by healthMu.
	health error

	// plans holds the prepared queries by text (prepared.go). plansMu is
	// held only for one lookup or insert, never while planning.
	plansMu sync.Mutex           // lockcheck: leaf
	plans   map[string]*Prepared // guarded by plansMu
}

// Health returns nil for a healthy index, or an error (wrapping
// ErrDegraded, and ErrCorrupt when the cause was corruption) describing
// why the index has been taken out of the query path. A degraded index
// still answers queries correctly via the scan fallback; RebuildIndex
// restores it.
func (ix *Index) Health() error {
	ix.healthMu.Lock()
	defer ix.healthMu.Unlock()
	return ix.health
}

// Degrade records err as the index's health problem, taking the index
// out of the query path until a rebuild (queries keep answering exactly
// via the scan fallback). The public API's panic-containment barrier
// uses it: after a recovered panic the in-memory index state cannot be
// trusted, so the conservative move is the same as for detected
// corruption. Only the first problem is kept.
func (ix *Index) Degrade(err error) { ix.setHealth(err) }

// setHealth records the first problem that degrades the index.
func (ix *Index) setHealth(err error) {
	ix.healthMu.Lock()
	defer ix.healthMu.Unlock()
	if ix.health == nil {
		ix.health = fmt.Errorf("%w: %w", ErrDegraded, err)
	}
}

// Candidate is one index hit: the pruning phase returns these and the
// refinement phase validates them.
type Candidate struct {
	Primary storage.Pointer
}

// Result summarizes one query execution.
type Result struct {
	Entries    int // total index entries (ent)
	Scanned    int // entries touched by the range scan
	Candidates int // entries surviving the feature filter and the pair sketch
	Matched    int // candidates producing at least one result (rst)
	Count      int // total output-node matches
	// SketchPruned counts the entries the feature filter alone keeps and
	// the pair sketch drops: Candidates + SketchPruned is the paper's cdt.
	SketchPruned int
	// SharedMatches counts the candidates answered by the match of their
	// chunk's first live unit instead of a match of their own (chunk
	// agreement, agree.go).
	SharedMatches int
	// Fallback reports that the index was degraded (see Health) and the
	// result came from a full sequential scan of the primary store. The
	// counts are exact; the pruning statistics are zero.
	Fallback bool
}

// PaperCandidates returns the paper's cdt: the entries the feature filter
// keeps, whether or not the pair sketch drops them after it.
func (r Result) PaperCandidates() int { return r.Candidates + r.SketchPruned }

func indexFile(opts Options, name string) (storage.File, error) {
	if opts.Dir == "" {
		return storage.NewMemFile(), nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	return storage.Disk.Create(filepath.Join(opts.Dir, name))
}

// Entries returns the number of index entries (ent in the paper's
// metrics): the postings of every chunk, or 0 when the B-tree is
// unavailable.
func (ix *Index) Entries() int {
	if ix.bt == nil {
		return 0
	}
	return int(ix.entries.Load())
}

// OversizeEntries returns how many entries use the artificial range.
func (ix *Index) OversizeEntries() int { return ix.oversize }

// MaxDocDepth returns the deepest indexed document.
func (ix *Index) MaxDocDepth() int { return ix.maxDocDepth }

// BuildTime returns the wall-clock construction time.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// Stats returns the per-phase timing breakdown of the last Build. It is
// the zero value for indexes loaded from disk.
func (ix *Index) Stats() BuildStats { return ix.buildStats }

// Options returns the options the index was built with.
func (ix *Index) Options() Options { return ix.opts }

// BTree exposes the underlying B-tree (for stats and experiments). It is
// nil when the index is degraded because the tree could not be opened.
func (ix *Index) BTree() *btree.Tree { return ix.bt }

// Verify checks the on-disk integrity of the index: every B-tree page's
// checksum and structure, that every key is keySize bytes, that every chunk
// decodes — in the one spelling chunk writes — to pointers that address
// existing records and lie above every pointer of the chunk before it in
// its run, that every unit of a chunk agrees with its first at least as
// deeply as the chunk says (recomputed from the heap), and that the chunks
// hold the number of postings fix.meta counts. Problems are recorded in the health
// status and returned.
func (ix *Index) Verify() error { return ix.verifyHealth(true) }

// VerifyStructure is Verify but for chunk agreement, which it does not
// recompute: it reads no record, so its cost follows the index and not the
// heap. It is the walk fix.Open makes after replaying its ingest log.
func (ix *Index) VerifyStructure() error { return ix.verifyHealth(false) }

func (ix *Index) verifyHealth(agreement bool) error {
	if err := ix.Health(); err != nil {
		return err
	}
	if err := ix.verify(agreement); err != nil {
		ix.setHealth(err)
		return err
	}
	return nil
}

func (ix *Index) verify(agreement bool) error {
	if ix.bt == nil {
		return fmt.Errorf("%w: B-tree unavailable", ErrCorrupt)
	}
	if err := ix.bt.Verify(); err != nil {
		return err
	}
	units := newUnitReader(ix.store, scanUnitBytes)
	nrec := uint32(ix.store.NumRecords())
	var bad error
	var run [12]byte // the (label, σ) of the chunk before
	var last storage.Pointer
	var ptrs []storage.Pointer
	total := 0
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != keySize {
			bad = errBadKey(k)
			return false
		}
		first := keyPointer(k)
		if total > 0 && string(k[:12]) == string(run[:]) && first <= last {
			bad = fmt.Errorf("%w: chunk %x starts at or below %v, which the chunk before it holds", ErrCorrupt, k, last)
			return false
		}
		r := openPostings(first, v)
		for ptrs = ptrs[:0]; r.next(); {
			total++
			ptrs = append(ptrs, r.ptr)
			if r.ptr.Rec() >= nrec {
				bad = fmt.Errorf("%w: entry points at record %d but the store holds %d", ErrCorrupt, r.ptr.Rec(), nrec)
				return false
			}
		}
		if !r.ok() {
			bad = errBadValue(k, v)
			return false
		}
		for i := 1; agreement && i < len(ptrs); i++ {
			d, err := units.agree(ptrs[i-1], ptrs[i], r.alike)
			switch {
			case err != nil:
				err = fmt.Errorf("%w: chunk %x holds a unit at %v or %v the heap does not: %w", ErrCorrupt, k, ptrs[i-1], ptrs[i], err)
			case d < r.alike:
				err = fmt.Errorf("%w: chunk %x says its units agree to depth %d, but those at %v and %v agree to depth %d", ErrCorrupt, k, r.alike, ptrs[i-1], ptrs[i], d)
			}
			if err != nil {
				bad = err
				return false
			}
		}
		copy(run[:], k)
		last = r.ptr
		return true
	})
	if err == nil {
		err = bad
	}
	if err == nil && total != ix.Entries() {
		err = fmt.Errorf("%w: the chunks hold %d postings, fix.meta counts %d", ErrCorrupt, total, ix.Entries())
	}
	return err
}

// Postings calls fn with the primary pointer of every posting, in key
// order, until fn returns an error, which Postings returns. The
// experiments lay out the paper's clustered copy (§4.1) with it.
func (ix *Index) Postings(fn func(storage.Pointer) error) error {
	if ix.bt == nil {
		return fmt.Errorf("%w: B-tree unavailable", ErrCorrupt)
	}
	var bad error
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != keySize {
			bad = errBadKey(k)
			return false
		}
		r := openPostings(keyPointer(k), v)
		for r.next() {
			if bad = fn(r.ptr); bad != nil {
				return false
			}
		}
		if !r.ok() {
			bad = errBadValue(k, v)
		}
		return bad == nil
	})
	if err == nil {
		err = bad
	}
	return err
}

// Close closes the index's own file, fix.btree. It commits nothing: what
// Save has not committed is the ingest log's to replay. A Generation stays
// readable — it holds the B-tree's image and follows primary pointers.
func (ix *Index) Close() error {
	if ix.bt == nil {
		return nil
	}
	return ix.bt.Close()
}

// Store returns the primary store the index was built over.
func (ix *Index) Store() *storage.Store { return ix.store }

// Dict returns the label dictionary the index plans and compiles
// queries with: its store's.
func (ix *Index) Dict() *xmltree.Dict { return ix.dict }

// SizeBytes returns the index size: the B-tree's pages.
func (ix *Index) SizeBytes() int64 {
	if ix.bt == nil {
		return 0
	}
	return ix.bt.Size()
}

// EdgePairs returns the number of distinct edge-label pairs assigned.
func (ix *Index) EdgePairs() int { return ix.enc.Len() }

// queryPlan carries the analyzed form of one query: what the probe
// compares entries with.
type queryPlan struct {
	feats    []Features // per twig, relaxed by slack: what entries are compared with
	sketch   uint32     // the pair sketch every unit that matches holds
	topLabel uint32
	labelOK  bool // top twig root label restricts the scan
	empty    bool // provably no results
	// share is the height of the refinement twig when one match may
	// answer every unit of a chunk that agrees that deeply
	// (shareHeight), and -1 otherwise; a plan that refines nothing keeps -1.
	share int
}

// plan computes twig features, the pair sketch and the scan strategy for a
// query tree. The sketch takes in the child edges of every twig the probe
// compares units with — the top one of a depth-limited index, all of a
// collection index's, whose unit is the whole document — and leaves the
// // edges between twigs out: they need not be edges of the unit.
func (ix *Index) plan(qt *xpath.QNode) (*queryPlan, error) {
	if qt == nil {
		return nil, fmt.Errorf("core: empty query")
	}
	p := &queryPlan{share: -1}
	twigs := xpath.Decompose(qt)
	top := twigs[0]
	if ix.opts.DepthLimit > 0 {
		if top.Root.Depth() > ix.opts.DepthLimit {
			return nil, fmt.Errorf("%w: top twig depth %d > limit %d", ErrNotCovered, top.Root.Depth(), ix.opts.DepthLimit)
		}
		// Descendant sub-twigs carry no pruning power for depth-limited
		// indexes (paper §5); only the top twig is used.
		twigs = twigs[:1]
	}
	for _, tw := range twigs {
		pn, ok := ix.resolve(tw.Root, nil)
		if !ok {
			p.empty = true
			return p, nil
		}
		ix.twigPairs(pn, func(parent, child uint32) { p.sketch |= pairSketch(ix.enc, parent, child) })
		canonicalize(pn)
		g, err := patternGraph(pn)
		if err != nil {
			return nil, err
		}
		var f Features
		if ix.opts.PaperPruning {
			f, ok, err = graphFeatures(g, ix.enc, false)
		} else {
			f, ok, err = ix.soundFeatures(pn, g)
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			p.empty = true
			return p, nil
		}
		p.feats = append(p.feats, f.relaxed())
	}
	// Root-label pruning applies to every depth-limited index (entries
	// are rooted at each element) and to collection indexes only for
	// root-anchored queries.
	if !ix.opts.NoRootLabel && (ix.opts.DepthLimit > 0 || qt.Axis == xpath.Child) {
		id, ok := ix.dict.Lookup(top.Root.Name)
		if !ok {
			p.empty = true
			return p, nil
		}
		p.topLabel, p.labelOK = id, true
	}
	return p, nil
}

// twigPairs calls fn with the labels of every edge of a resolved twig,
// before canonicalize weakens it: a match maps each of them onto an edge of
// the unit with the same two labels, whether or not two land on one.
func (ix *Index) twigPairs(pn *pnode, fn func(parent, child uint32)) {
	for _, c := range pn.children {
		fn(pn.label, c.label)
		ix.twigPairs(c, fn)
	}
}

// soundBound computes the provably sound pruning bound: the maximum σ
// over the pattern's guaranteed-induced substructures of at most three
// vertices (single edges and adjacent edge pairs). A 3×3 skew-symmetric
// matrix has σ = √(Σw²), which only grows when the data adds edges among
// the image vertices, so unlike the full-pattern σ this bound can never
// prune a true match. ok is false when a pattern edge never occurs in the
// data.
func (ix *Index) soundBound(g *bisim.Graph) (Features, bool) {
	best := 0.0
	for _, v := range g.Vertices {
		ws := make([]float64, 0, len(v.Children))
		for _, c := range v.Children {
			w, ok := ix.enc.Lookup(v.Label, c.Label)
			if !ok {
				return Features{}, false
			}
			fw := float64(w)
			ws = append(ws, fw)
			if fw > best {
				best = fw
			}
			// Chains v -> c -> gc.
			for _, gc := range c.Children {
				w2, ok := ix.enc.Lookup(c.Label, gc.Label)
				if !ok {
					return Features{}, false
				}
				if s := hyp(fw, float64(w2)); s > best {
					best = s
				}
			}
		}
		// Sibling stars v -> {ci, cj}.
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				if s := hyp(ws[i], ws[j]); s > best {
					best = s
				}
			}
		}
	}
	return Features{Sigma: best}, true
}

func hyp(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}

type eventSlice struct {
	events []bisim.Event
	pos    int
}

func (s *eventSlice) Next() (bisim.Event, error) {
	if s.pos >= len(s.events) {
		return bisim.Event{}, io.EOF
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, nil
}

// refinementQuery adapts the original query for per-candidate refinement:
// for depth-limited indexes the leading // becomes / because every
// descendant of an indexed pattern instance is itself indexed (Algorithm
// 2, lines 7-8). It also reports whether candidates must be document
// roots (a /-anchored query on a depth-limited index).
func (ix *Index) refinementQuery(qt *xpath.QNode) (*xpath.QNode, bool) {
	if ix.opts.DepthLimit == 0 {
		return qt, false
	}
	rq := qt.Clone()
	rootAnchored := rq.Axis == xpath.Child
	rq.Axis = xpath.Child
	return rq, rootAnchored
}

// QueryFeatures exposes the features FIX computes for the query's top
// twig, relaxed by slack as the probe compares them; diagnostics and
// experiments use it.
func (ix *Index) QueryFeatures(path *xpath.Path) (Features, bool, error) {
	p, err := ix.plan(path.Tree())
	if err != nil {
		return Features{}, false, err
	}
	if p.empty || len(p.feats) == 0 {
		return Features{}, false, nil
	}
	return p.feats[0], true, nil
}
