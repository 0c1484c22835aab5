package core

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"github.com/fix-index/fix/internal/bisim"
	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/matrix"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/par"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// Parallel index construction.
//
// The per-record work of Algorithm 1 — parsing the stored document,
// reducing it to its bisimulation graph, translating to an anti-symmetric
// matrix, and computing extreme eigenvalues — is independent across
// records, so Build fans it out over a bounded worker pool. The one piece
// of shared state, the edge-label encoder (whose pair→weight assignment
// feeds the matrices and therefore the eigenvalues), is only ever mutated
// at a sequential merge point that walks records in record order.
// Records flow through the pipeline in batches of four phases:
//
//	1. parse + bisimulation     parallel; no shared writes
//	2. edge-pair assignment     sequential, in record order
//	3. matrix + eigenvalues     parallel; encoder is read-only
//	4. collect                  sequential, in record order
//
// Phase 4 only appends each entry, as a fixed-size buildEntry, to one
// slice. When the last batch is through, the slice is sorted by (label, σ,
// pointer), cut into chunks run by run and packed into the B-tree
// bottom-up (btree.Tree.Load): every page is written once, full, and never
// decoded again.
//
// Because phases 2 and 4 see records in record order whatever the worker
// count, and phases 1 and 3 write only to per-record slots, the collected
// entries are the same for any Workers setting (and any batch size, which
// only bounds memory); their pointers are unique, so the sorted order and
// with it every page byte is the same too. BuildStats reports where the time
// went.

// BuildStats reports where one index construction spent its time. The
// per-phase durations are summed across workers, so on a multi-core build
// they can exceed Wall; comparing a phase across worker counts shows
// whether it scaled.
type BuildStats struct {
	// Workers is the effective worker-pool size used.
	Workers int
	// Records is the number of primary-store records indexed; Units the
	// number of indexable units (records, or elements when a depth limit
	// enumerates one subpattern per element).
	Records, Units int
	// Parse covers reading records and adapting them to structural event
	// streams; Bisim the bisimulation reduction; Eigen the matrix
	// translation and eigenvalue computation; Insert everything sequential
	// that puts the entries into the B-tree: collecting them, the sort and
	// the bottom-up pack.
	// Parse, Bisim and Eigen are cumulative across workers.
	Parse, Bisim, Eigen, Insert time.Duration
	// Wall is the end-to-end construction time (BuildTime reports the
	// same value).
	Wall time.Duration
}

// UnitsPerSec returns indexing throughput in units per wall-clock second.
func (s BuildStats) UnitsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Units) / s.Wall.Seconds()
}

// phaseTimers accumulates per-phase nanoseconds from concurrent workers.
type phaseTimers struct {
	parse, bisim, eigen atomic.Int64
}

// graphElem is one element vertex reported by the bisimulation pass,
// paired with its storage pointer.
type graphElem struct {
	v   *bisim.Vertex
	ptr uint64
}

// pendingEntry is one computed index entry awaiting the in-order merge.
type pendingEntry struct {
	label uint32
	f     Features
	ptr   storage.Pointer
}

// buildUnit carries one record through the pipeline.
type buildUnit struct {
	rec     uint32
	buf     []byte // the record, which an append compares units in
	graph   *bisim.Graph
	elems   []graphElem
	pairs   []matrix.LabelPair // first-seen order, deterministic
	depth   int
	entries []pendingEntry
}

// buildEntry is one collected entry awaiting the pack: the key fields in
// the unsigned form that sorts like the key bytes (see putKey), and its
// pair sketch.
type buildEntry struct {
	sigma   uint64 // encodeFloat of σ
	primary uint64
	label   uint32
	sketch  uint32
}

// Build constructs a FIX index over every document in st.
func Build(st *storage.Store, opts Options) (*Index, error) {
	return BuildCtx(context.Background(), st, opts)
}

// BuildCtx is Build with cancellation: workers observe ctx between units
// and the sequential steps observe it between records and entries, so a
// cancelled build returns ctx.Err() promptly. A failed build closes the
// files it created — nothing else can refer to them yet, and a
// maintainer retries a failing rebuild for as long as its server lives.
// A cancelled on-disk build leaves the fix.btree it truncated behind,
// empty; it is harmless — the committed fix.meta still describes the
// previous index (or none), so a later Open degrades to the scan fallback
// (or finds no index), and rebuilding fills the file.
func BuildCtx(ctx context.Context, st *storage.Store, opts Options) (_ *Index, err error) {
	opts.setDefaults()
	workers := par.Workers(opts.Workers)
	start := time.Now()
	btFile, err := indexFile(opts, "fix.btree")
	if err != nil {
		return nil, err
	}
	ix := &Index{
		opts:  opts,
		store: st,
		dict:  st.Dict(),
		enc:   matrix.NewEdgeEncoder(),
	}
	defer func() {
		if err != nil {
			_ = btFile.Close()
		}
	}()
	ix.bt, err = btree.Create(btFile, opts.PageSize, 0)
	if err != nil {
		return nil, err
	}
	ix.vh = valueHasher{alpha: ix.dict.MaxID(), beta: opts.Beta}

	timers := &phaseTimers{}
	nrec := st.NumRecords()
	var entries []buildEntry
	var insertTime time.Duration
	// The batch size bounds how many decoded graphs are in flight at
	// once; it does not affect the output (see the pipeline comment).
	batch := 4 * workers
	if batch < 64 {
		batch = 64
	}
	recs := make([]uint32, 0, batch)
	window := make([]*buildUnit, batch)
	for lo := 0; lo < nrec; lo += batch {
		recs = recs[:0]
		for r := lo; r < lo+batch && r < nrec; r++ {
			recs = append(recs, uint32(r))
		}
		if err := ix.extract(ctx, recs, window, timers); err != nil {
			return nil, err
		}
		// Phase 4: collect the entries in record order.
		insStart := time.Now()
		for i := range recs {
			u := window[i]
			window[i] = nil
			if u == nil {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if u.depth > ix.maxDocDepth {
				ix.maxDocDepth = u.depth
			}
			for _, e := range u.entries {
				if e.f.Oversize {
					ix.oversize++
				}
				entries = append(entries, buildEntry{
					label:   e.label,
					sigma:   encodeFloat(e.f.Sigma),
					primary: uint64(e.ptr),
					sketch:  e.f.Sketch,
				})
			}
		}
		insertTime += time.Since(insStart)
	}
	insStart := time.Now()
	ix.entries.Store(int64(len(entries)))
	slices.SortFunc(entries, func(a, b buildEntry) int {
		return cmp.Or(cmp.Compare(a.label, b.label), cmp.Compare(a.sigma, b.sigma), cmp.Compare(a.primary, b.primary))
	})
	if err := ix.pack(ctx, entries); err != nil {
		return nil, err
	}
	insertTime += time.Since(insStart)
	// The file is this build's, created empty above, and no committed
	// fix.meta describes it yet: there is nothing a journal could protect.
	if err := ix.bt.Flush(); err != nil {
		return nil, err
	}
	ix.buildTime = time.Since(start)
	obs.Default().ObserveBuild(nrec, len(entries), ix.buildTime)
	ix.buildStats = BuildStats{
		Workers: workers,
		Records: nrec,
		Units:   len(entries),
		Parse:   time.Duration(timers.parse.Load()),
		Bisim:   time.Duration(timers.bisim.Load()),
		Eigen:   time.Duration(timers.eigen.Load()),
		Insert:  insertTime,
		Wall:    ix.buildTime,
	}
	return ix, nil
}

// pack loads the sorted entries into the empty B-tree, each run of equal
// (label, σ) as chunks that are full but for the run's last, each with
// the depth to which its units agree: the least agreement of two units
// next to each other, which is the least agreement of any with the first.
func (ix *Index) pack(ctx context.Context, entries []buildEntry) error {
	units := newUnitReader(ix.store, scanUnitBytes)
	limit := ix.chunkLimit()
	key := make([]byte, keySize)
	var c chunk
	var val []byte
	i := 0
	return ix.bt.Load(func() ([]byte, []byte, error) {
		if i == len(entries) {
			return nil, nil, io.EOF
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		run, from := entries[i], i
		for c.reset(); i < len(entries); i++ {
			e := &entries[i]
			if e.label != run.label || e.sigma != run.sigma || !c.fits(storage.Pointer(e.primary), e.sketch, limit) {
				break
			}
		}
		for j := from + 1; j < i; j++ {
			d, err := units.agree(storage.Pointer(entries[j-1].primary), storage.Pointer(entries[j].primary), c.alike)
			if err != nil {
				return nil, nil, err
			}
			c.alike = d
		}
		putKey(key, run.label, run.sigma, c.first)
		val = c.appendTo(val[:0])
		return key, val, nil
	})
}

// chunkLimit returns the most bytes a chunk value of the index may take.
func (ix *Index) chunkLimit() int { return min(maxChunkBytes, ix.bt.MaxValue(keySize)) }

// extract runs phases 1 to 3 over recs, leaving the unit of recs[i] — nil
// for a record without a root element — in units[i].
func (ix *Index) extract(ctx context.Context, recs []uint32, units []*buildUnit, timers *phaseTimers) error {
	workers := par.Workers(ix.opts.Workers)
	var vh bisim.ValueHash
	if ix.opts.Values {
		vh = ix.vh.hash
	}
	// Phase 1: parse records and build bisimulation graphs.
	err := par.Do(ctx, workers, len(recs), func(i int) (err error) {
		units[i], err = ix.buildUnitGraph(recs[i], vh, timers)
		return err
	})
	if err != nil {
		return err
	}
	// Phase 2 — the deterministic merge point: assign edge-pair weights
	// in record order, so the encoder (and everything derived from it) is
	// identical for any worker count.
	for _, u := range units[:len(recs)] {
		if u == nil {
			continue
		}
		for _, p := range u.pairs {
			ix.enc.Encode(p.Parent, p.Child)
		}
	}
	// Phase 3: matrices and eigenvalues; the encoder is read-only.
	return par.Do(ctx, workers, len(recs), func(i int) error {
		if units[i] == nil {
			return nil
		}
		return ix.buildUnitFeatures(units[i], timers)
	})
}

// buildUnitGraph runs the parallel-safe front half of the pipeline for
// one record: parse, bisimulation reduction, and the deterministic list
// of edge-label pairs the record contributes. It returns nil for records
// without a root element.
func (ix *Index) buildUnitGraph(rec uint32, vh bisim.ValueHash, timers *phaseTimers) (*buildUnit, error) {
	parseStart := time.Now()
	buf, err := ix.store.ReadRecord(nil, rec)
	if err != nil {
		return nil, err
	}
	cur := xmltree.Cursor{Buf: buf, Dict: ix.dict}
	base := uint64(storage.MakePointer(rec, 0))
	events, err := collectEvents(bisim.FromXML(xmltree.NewCursorStream(cur, 0, base), ix.dict, vh))
	if err != nil {
		return nil, fmt.Errorf("core: parsing record %d: %w", rec, err)
	}
	bisimStart := time.Now()
	timers.parse.Add(int64(bisimStart.Sub(parseStart)))
	u := &buildUnit{rec: rec, buf: cur.Buf}
	g, err := bisim.Build(&eventSlice{events: events}, func(v *bisim.Vertex, ptr uint64) {
		u.elems = append(u.elems, graphElem{v, ptr})
	})
	if err != nil {
		return nil, fmt.Errorf("core: building bisimulation graph of record %d: %w", rec, err)
	}
	if g.Root == nil {
		timers.bisim.Add(int64(time.Since(bisimStart)))
		return nil, nil
	}
	u.graph = g
	u.depth = g.MaxDepth()
	u.pairs = graphPairs(g)
	timers.bisim.Add(int64(time.Since(bisimStart)))
	return u, nil
}

// buildUnitFeatures computes the unit's index entries: features — σ and
// the pair sketch — for the whole document, or one per element under a
// depth limit, each taken from the index's shape table when its shape is
// there and computed and put there when not. All edge pairs were assigned
// at the merge point, so the encoder is only read here.
func (ix *Index) buildUnitFeatures(u *buildUnit, timers *phaseTimers) error {
	eigenStart := time.Now()
	defer func() { timers.eigen.Add(int64(time.Since(eigenStart))) }()
	g, limit := u.graph, ix.opts.DepthLimit
	if limit == 0 {
		// The whole document is one indexable unit.
		id, gen, ok := ix.shapes.graphID(g)
		f, err := ix.shapes.features(gen, id<<1, ok, func() (Features, error) { return ix.documentFeatures(u) })
		if err != nil {
			return err
		}
		u.entries = []pendingEntry{{label: g.Root.Label, f: f, ptr: storage.MakePointer(u.rec, 0)}}
		return nil
	}
	// Enumerate one depth-limited subpattern per element (Theorem 4: with
	// a positive depth limit the number of entries equals the number of
	// elements).
	ids, gen, ok := ix.shapes.cutIDs(g, limit)
	// The units of one vertex are alike, so each vertex is looked up or
	// computed once: what keeps a record whose cuts the table cannot hold —
	// one large document — from computing a vertex per element.
	type slot struct {
		f   Features
		set bool
	}
	memo := make([]slot, len(g.Vertices)) // by vertex ID
	u.entries = make([]pendingEntry, 0, len(u.elems))
	for _, e := range u.elems {
		m := &memo[e.v.ID]
		if !m.set {
			f, err := ix.shapes.features(gen, unitKey(ids, e.v, limit), ok, func() (Features, error) {
				return subpatternFeatures(e.v, limit, ix.opts.EdgeBudget, ix.enc)
			})
			if err != nil {
				return err
			}
			*m = slot{f, true}
		}
		u.entries = append(u.entries, pendingEntry{label: e.v.Label, f: m.f, ptr: storage.Pointer(e.ptr)})
	}
	return nil
}

// documentFeatures computes the features of the unit of a whole-document
// index: its record's graph.
func (ix *Index) documentFeatures(u *buildUnit) (Features, error) {
	g := u.graph
	if ix.opts.EdgeBudget > 0 && g.NumEdges() > ix.opts.EdgeBudget {
		return oversizeFeatures(), nil
	}
	f, ok, err := graphFeatures(g, ix.enc, false)
	if err != nil {
		return Features{}, err
	}
	if !ok {
		return Features{}, fmt.Errorf("core: internal: record %d uses an edge pair missing after pre-assignment", u.rec)
	}
	for _, p := range u.pairs {
		f.Sketch |= pairSketch(ix.enc, p.Parent, p.Child)
	}
	return f, nil
}

// graphPairs lists the distinct (parent label, child label) pairs of g in
// a deterministic first-seen order: vertices in creation order, children
// in ID order. Every depth-limited unfolding of g uses only edges of g,
// so pre-assigning exactly these pairs covers all feature computations
// the record needs.
func graphPairs(g *bisim.Graph) []matrix.LabelPair {
	seen := make(map[matrix.LabelPair]struct{})
	var pairs []matrix.LabelPair
	for _, v := range g.Vertices {
		for _, c := range v.Children {
			p := matrix.LabelPair{Parent: v.Label, Child: c.Label}
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				pairs = append(pairs, p)
			}
		}
	}
	return pairs
}

// collectEvents drains a bisimulation event stream into a slice, so the
// parse cost can be measured apart from the reduction.
func collectEvents(s bisim.EventStream) ([]bisim.Event, error) {
	var events []bisim.Event
	for {
		ev, err := s.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
}
