package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/bisim"
	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/collection"
	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/eigen"
	"github.com/fix-index/fix/internal/matrix"
	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/par"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// The traced run builds the per-layer ledger from outside the program:
// the same seeded operations are replayed once over HTTP and once
// in-process at each depth of the stack — collection, fix, and the leaf
// packages under fix — with a span around every call into a layer's
// public function. A layer's self time is its span minus its children's.
// No span or counter is added inside fix, internal/* or cmd/*.

// Layer names of the span tree, outermost first. Spans are keyed by the
// operation's class: a query's template, or, behind the templates, the
// kind of an ingest request.
const (
	lHTTP       = "fixserve"
	lCollection = "collection"
	lFix        = "fix"
	lParse      = "xpath.parse"
	lPlan       = "core.plan"
	lProbe      = "core.probe"
	lRead       = "storage.read_subtree"
	lCompile    = "nok.compile"
	lEval       = "nok.eval"
	lXMLParse   = "xmltree.parse"
	lXMLEncode  = "xmltree.encode"
	lWAL        = "core.wal_append"
	lInsert     = "core.insert_docs"
)

// leafLayers are the children of the fix span, per operation kind.
var (
	queryLeaves  = []string{lParse, lPlan, lProbe, lRead, lCompile, lEval}
	ingestLeaves = []string{lXMLParse, lXMLEncode, lWAL, lInsert}
)

// span is one timed call into a layer, as written to trace.json.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     int    `json:"op"`     // the operation's class: template index, or past the templates the kind of ingest request
	Rep    int    `json:"rep"`    // which replay of that operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// spanKey finds the span of one layer for one operation and replay.
type spanKey struct {
	name    string
	op, rep int
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	index map[spanKey]int // → span id
}

func newTracer() *tracer { return &tracer{t0: time.Now(), index: map[spanKey]int{}} }

// add records a finished span; parent names the enclosing layer of the
// same operation and replay ("" for a root).
func (t *tracer) add(name, parent string, op, rep int, start time.Time, d time.Duration) {
	s := span{ID: len(t.spans) + 1, Op: op, Rep: rep, Name: name, Start: int64(start.Sub(t.t0)), End: int64(start.Sub(t.t0) + d)}
	if parent != "" {
		s.Parent = t.index[spanKey{parent, op, rep}]
	}
	t.index[spanKey{name, op, rep}] = s.ID
	t.spans = append(t.spans, s)
}

// durations groups span lengths by layer and operation key.
func (t *tracer) durations() map[string]map[int][]float64 {
	out := map[string]map[int][]float64{}
	for _, s := range t.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int][]float64{}
		}
		out[s.Name][s.Op] = append(out[s.Name][s.Op], float64(s.End-s.Start)/1e6)
	}
	return out
}

// layerMS is a layer's typical time per operation of one kind, in ms:
// the mean over the kind's classes (the classes from firstIngest on are
// ingest requests, those below it query templates) of each class's
// median span. The ledger asks where a request's time goes on the
// machine as it is, garbage collection included, so it reads medians and
// not the quiet values of the end-to-end metrics; every layer samples
// every class equally often (replayOps).
func layerMS(d map[string]map[int][]float64, layer string, ingest bool, firstIngest int) float64 {
	sum, n := 0.0, 0
	for class, v := range d[layer] {
		if (class >= firstIngest) == ingest {
			sum += median(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// leafDB is the leaf-level view of one database directory: the heap, the
// index and a frozen generation, opened the way fix.Open does.
type leafDB struct {
	st   *storage.Store
	dict *xmltree.Dict
	ix   *core.Index
	gen  *core.Generation
	wal  *core.IngestLog
}

func openLeaf(dir string) (*leafDB, error) {
	df, err := os.Open(filepath.Join(dir, "labels.dict"))
	if err != nil {
		return nil, err
	}
	dict, err := xmltree.ReadDict(df)
	_ = df.Close()
	if err != nil {
		return nil, err
	}
	hf, err := storage.Open(filepath.Join(dir, "data.heap"))
	if err != nil {
		return nil, err
	}
	st, err := storage.OpenStore(hf, dict)
	if err != nil {
		_ = hf.Close()
		return nil, err
	}
	ix, err := core.Open(st, dir)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	wf, err := storage.Create(filepath.Join(dir, "ledger.wal"))
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	wal, err := core.NewIngestLog(wf, uint32(st.NumRecords()), st.Size())
	if err != nil {
		_ = wf.Close()
		_ = st.Close()
		return nil, err
	}
	return &leafDB{st: st, dict: dict, ix: ix, wal: wal, gen: core.NewGeneration(1, ix, st, dict, nil, nil)}, nil
}

func (l *leafDB) close() {
	_ = l.wal.Close()
	_ = l.st.Close()
}

// ledger accumulates what the in-process replays count.
type ledger struct {
	tr *tracer
	// query counters, from fix.Result.Trace at the fix depth
	queries, scanned, candidates, results int64
	pageReads, cacheHits                  int64
	bytesRead, cachedReads, heapReads     int64
	nodesVisited                          int64
	shardsProbed, targeted, colQueries    int64
	// leaf counters
	readNS, evalNS, evals, evalMallocs int64
	leafMismatch                       int
	walBytes, addedBytes, heapWritten  int64
	insertedDocs, insertNS             int64
	checkpointMS                       []float64
	openMS, openReplayMS               float64
}

// targets lists the shards a query goes to, mirroring the collection's
// router: a child first step pins the shard of that root label.
func targets(path *xpath.Path, shards int) []int {
	if qt := path.Tree(); shards > 1 && qt != nil && qt.Axis == xpath.Child {
		return []int{collection.ShardForLabel(qt.Name, shards)}
	}
	all := make([]int, shards)
	for i := range all {
		all[i] = i
	}
	return all
}

// replayOps is what the in-process depths replay: on a read-only
// workload the round's list as often as the HTTP phase played it
// untraced, on a write workload the first measured round. So every layer
// samples every class as often as the HTTP phase did.
func (r *run) replayOps() []op {
	if !r.sp.readOnly {
		return r.list(1)
	}
	var ops []op
	for i := 0; i < r.res.Rounds; i++ {
		ops = append(ops, r.list(1)...)
	}
	return ops
}

type repCounter map[int]int

func (c repCounter) next(key int) int { c[key]++; return c[key] - 1 }

// replayCollection replays the operations through collection.Collection.
func (r *run) replayCollection(ctx context.Context, lg *ledger, dir string) error {
	col, err := collection.Open(filepath.Join(dir, "bib"), collection.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = col.Close() }()
	reps := repCounter{}
	for _, o := range r.replayOps() {
		if o.isIngest() {
			t0 := time.Now()
			if _, err := col.AddBatch(ctx, o.adds); err != nil {
				return err
			}
			for _, id := range o.dels {
				if err := col.Delete(ctx, id); err != nil {
					return err
				}
			}
			lg.tr.add(lCollection, lHTTP, o.class, reps.next(o.class), t0, time.Since(t0))
			continue
		}
		t0 := time.Now()
		res, err := col.Query(ctx, r.sp.templates[o.tmpl], collection.QueryOpts{})
		d := time.Since(t0)
		if err != nil {
			return err
		}
		lg.tr.add(lCollection, lHTTP, o.tmpl, reps.next(o.tmpl), t0, d)
		lg.colQueries++
		lg.shardsProbed += int64(len(res.Shards))
		if res.Targeted {
			lg.targeted++
		}
	}
	return nil
}

// replayFix replays the operations through fix.DB: one database, or the
// collection's shard databases addressed the way the router would. On a
// collection the slowest shard's time is the child of the collection
// span, because the collection waits for exactly that.
func (r *run) replayFix(ctx context.Context, lg *ledger, dir string) error {
	parent, dirs := lHTTP, r.sp.dbDirs(dir)
	if r.sp.collection {
		parent = lCollection
	}
	dbs := make([]*fix.DB, len(dirs))
	for i, d := range dirs {
		t0 := time.Now()
		db, err := fix.Open(d)
		if err != nil {
			return err
		}
		lg.openMS += float64(time.Since(t0)) / 1e6
		dbs[i] = db
	}
	// Writes go through a group-commit ingester with fixserve's defaults,
	// as they do in the server, so the commit linger is fix's time.
	ings := make([]*fix.Ingester, len(dbs))
	for i, db := range dbs {
		ings[i] = db.NewIngester(fix.IngestConfig{})
	}
	closeAll := func() {
		for i, db := range dbs {
			_ = ings[i].Close()
			_ = db.Close()
		}
	}
	defer closeAll()
	written0 := int64(0)
	for _, db := range dbs {
		written0 += db.Metrics().Storage.BytesWritten
	}
	reps := repCounter{}
	sinceCheckpoint := 0
	for _, o := range r.replayOps() {
		if o.isIngest() {
			byShard, err := r.sp.route(o.adds)
			if err != nil {
				return err
			}
			t0 := time.Now()
			var slowest time.Duration
			for s, docs := range byShard {
				if len(docs) == 0 {
					continue
				}
				ts := time.Now()
				if _, err := ings[s].AddBatch(ctx, docs); err != nil {
					return err
				}
				slowest = max(slowest, time.Since(ts))
			}
			for _, id := range o.dels {
				s, rec := collection.SplitID(id)
				ts := time.Now()
				if err := ings[s].Delete(ctx, rec); err != nil {
					return err
				}
				slowest += time.Since(ts)
			}
			lg.tr.add(lFix, parent, o.class, reps.next(o.class), t0, slowest)
			lg.addedBytes += o.addBytes()
			// The server's flush policy: a checkpoint every 256 operations.
			if sinceCheckpoint += len(o.adds) + len(o.dels); sinceCheckpoint >= 256 {
				sinceCheckpoint = 0
				for _, db := range dbs {
					if db.IngestLag() == 0 {
						continue
					}
					ts := time.Now()
					if err := db.CheckpointCtx(ctx); err != nil {
						return err
					}
					lg.checkpointMS = append(lg.checkpointMS, float64(time.Since(ts))/1e6)
				}
			}
			continue
		}
		q := r.sp.templates[o.tmpl]
		path, err := xpath.Parse(q)
		if err != nil {
			return err
		}
		t0 := time.Now()
		var slowest time.Duration
		for _, s := range targets(path, len(dbs)) {
			ts := time.Now()
			res, err := dbs[s].QueryCtx(ctx, q, fix.Trace())
			slowest = max(slowest, time.Since(ts))
			if err != nil {
				return err
			}
			tr := res.Trace
			lg.scanned += int64(tr.Scanned)
			lg.candidates += int64(tr.Candidates)
			lg.results += int64(tr.Count)
			lg.pageReads += tr.PageReads
			lg.cacheHits += tr.CacheHits
			lg.bytesRead += tr.BytesRead
			lg.cachedReads += tr.CachedReads
			lg.heapReads += tr.SeqReads + tr.RandomReads + tr.CachedReads
			lg.nodesVisited += tr.NodesVisited
		}
		lg.queries++
		lg.tr.add(lFix, parent, o.tmpl, reps.next(o.tmpl), t0, slowest)
	}
	for _, db := range dbs {
		lg.heapWritten += db.Metrics().Storage.BytesWritten
	}
	lg.heapWritten -= written0
	if !r.sp.readOnly {
		// Reopen with the WAL tail still unabsorbed: recovery replay time.
		// Where the index outgrows the pager cache a close leaves evicted
		// B-tree pages behind that the last checkpoint never saw, and
		// recovery over them can spin forever (bench/README.md, "Known
		// product defects"), so there the log is checkpointed first, as
		// before the SIGKILL of the HTTP phase.
		if r.sp.writeOnly {
			for _, db := range dbs {
				if err := db.CheckpointCtx(ctx); err != nil {
					return err
				}
			}
		}
		closeAll()
		dbs, ings = nil, nil
		for _, d := range dirs {
			took, err := reopenInChild(ctx, d)
			if errors.Is(err, errReopenHung) {
				r.warn("fix.Open of %s did not return within %v (known product defect 2); fix.open_replay_ms counts the deadline", filepath.Base(d), reopenDeadline)
				took = reopenDeadline
			} else if err != nil {
				return err
			}
			lg.openReplayMS += float64(took) / 1e6
		}
	}
	return nil
}

// reopenDeadline bounds one recovery of the traced run.
const reopenDeadline = 20 * time.Second

var errReopenHung = errors.New("fix.Open did not return")

// reopenInChild times fix.Open of dir in a child process (this binary
// with -reopen), because a recovery that spins can be stopped only by
// killing the process it runs in, and a benchmark run must end.
func reopenInChild(ctx context.Context, dir string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, reopenDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-reopen", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output() // waits for the child, killed or not
	if ctx.Err() == context.DeadlineExceeded {
		return 0, errReopenHung
	}
	if err != nil {
		return 0, fmt.Errorf("reopening %s: %w", dir, err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	return time.Duration(ns), err
}

// reopenMain is the child side of reopenInChild: it prints how many
// nanoseconds fix.Open took.
func reopenMain(dir string) int {
	t0 := time.Now()
	db, err := fix.Open(dir)
	took := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixload: -reopen:", err)
		return 1
	}
	fmt.Println(took.Nanoseconds())
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fixload: -reopen:", err)
		return 1
	}
	return 0
}

// replayLeaves replays the operations against the packages under fix:
// xpath, core, storage and nok for a query; xmltree and core for an
// ingest. Where fix fans refinement out over the worker pool, so does the
// replay, and that wall time is split between storage and nok in
// proportion to their sequential costs, so the children of a fix span
// add up to wall time and not to CPU time.
func (r *run) replayLeaves(ctx context.Context, lg *ledger, dir string) error {
	dirs := r.sp.dbDirs(dir)
	leaves := make([]*leafDB, len(dirs))
	for i, d := range dirs {
		l, err := openLeaf(d)
		if err != nil {
			return err
		}
		defer l.close()
		leaves[i] = l
	}
	reps := repCounter{}
	for _, o := range r.replayOps() {
		if o.isIngest() {
			if err := r.leafIngest(ctx, lg, leaves, &o, reps.next(o.class)); err != nil {
				return err
			}
			continue
		}
		if err := r.leafQuery(ctx, lg, leaves, o.tmpl, reps.next(o.tmpl)); err != nil {
			return err
		}
	}
	for _, l := range leaves {
		lg.walBytes += l.wal.Size()
	}
	return nil
}

// leafTimes is one shard's share of an operation at the leaf depth.
type leafTimes struct {
	start time.Time
	d     map[string]time.Duration
}

func (lt leafTimes) total() time.Duration {
	var sum time.Duration
	for _, d := range lt.d {
		sum += d
	}
	return sum
}

// record writes the slowest shard's leaf spans under the fix span.
func (lg *ledger) record(per []leafTimes, names []string, key, rep int) {
	var slowest leafTimes
	for _, lt := range per {
		if slowest.d == nil || lt.total() > slowest.total() {
			slowest = lt
		}
	}
	at := slowest.start
	for _, n := range names {
		lg.tr.add(n, lFix, key, rep, at, slowest.d[n])
		at = at.Add(slowest.d[n])
	}
}

func (r *run) leafQuery(ctx context.Context, lg *ledger, leaves []*leafDB, tmpl, rep int) error {
	q := r.sp.templates[tmpl]
	var per []leafTimes
	count := 0
	t0 := time.Now()
	path, err := xpath.Parse(q)
	parse := time.Since(t0) // every shard's fix.DB parses the expression itself
	if err != nil {
		return err
	}
	for _, shard := range targets(path, len(leaves)) {
		l := leaves[shard]
		lt := leafTimes{start: time.Now(), d: map[string]time.Duration{lParse: parse}}

		t0 = time.Now()
		if _, _, err := l.ix.QueryFeatures(path); err != nil {
			return err
		}
		lt.d[lPlan] = time.Since(t0)

		t0 = time.Now()
		cands, _, err := l.gen.CandidatesCtx(ctx, path)
		if err != nil {
			return err
		}
		// CandidatesCtx plans again before it scans; the scan is the rest.
		lt.d[lProbe] = max(time.Since(t0)-lt.d[lPlan], 0)

		// Algorithm 2, lines 7-8: on a depth-limited index every element is
		// an entry, so the leading // becomes / and a /-anchored query
		// matches document roots only.
		rq, rootOnly := path.Tree(), false
		if l.ix.Options().DepthLimit > 0 {
			rq = rq.Clone()
			rootOnly = rq.Axis == xpath.Child
			rq.Axis = xpath.Child
		}
		t0 = time.Now()
		nq, err := nok.Compile(rq, l.dict)
		lt.d[lCompile] = time.Since(t0)
		if err != nil {
			return err
		}
		ptrs := make([]storage.Pointer, 0, len(cands))
		for _, c := range cands {
			if (rootOnly && c.Primary.Off() != 0) || l.gen.Tombs().Has(c.Primary.Rec()) {
				continue
			}
			ptrs = append(ptrs, c.Primary)
		}

		// Sequential passes: what one fetch and one evaluation cost.
		type fetched struct {
			cur xmltree.Cursor
			ref xmltree.Ref
		}
		subtrees := make([]fetched, len(ptrs))
		t0 = time.Now()
		for j, p := range ptrs {
			cur, ref, err := l.gen.Store().ReadSubtree(p)
			if err != nil {
				return err
			}
			subtrees[j] = fetched{cur, ref}
		}
		readSeq := time.Since(t0)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		for _, s := range subtrees {
			n, _ := nq.Eval(s.cur, s.ref)
			count += n
		}
		evalSeq := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		lg.readNS += int64(readSeq)
		lg.evalNS += int64(evalSeq)
		lg.evals += int64(len(ptrs))
		lg.evalMallocs += int64(ms1.Mallocs - ms0.Mallocs)

		// Parallel pass: the wall time refinement takes as fix runs it.
		t0 = time.Now()
		err = par.Do(ctx, 0, len(ptrs), func(j int) error {
			cur, ref, err := l.gen.Store().ReadSubtree(ptrs[j])
			if err != nil {
				return err
			}
			nq.Count(cur, ref)
			return nil
		})
		wall := time.Since(t0)
		if err != nil {
			return err
		}
		if readSeq+evalSeq > 0 {
			lt.d[lRead] = time.Duration(float64(wall) * float64(readSeq) / float64(readSeq+evalSeq))
		}
		lt.d[lEval] = wall - lt.d[lRead]
		per = append(per, lt)
	}
	if r.sp.readOnly && count != r.fx.expected[tmpl] {
		lg.leafMismatch++
	}
	lg.record(per, queryLeaves, tmpl, rep)
	return nil
}

func (r *run) leafIngest(ctx context.Context, lg *ledger, leaves []*leafDB, o *op, rep int) error {
	per := make([]leafTimes, len(leaves))
	byShard, err := r.sp.route(o.adds)
	if err != nil {
		return err
	}
	for s, docs := range byShard {
		per[s] = leafTimes{start: time.Now(), d: map[string]time.Duration{}}
		if len(docs) == 0 {
			continue
		}
		l := leaves[s]
		lt := per[s]
		nodes := make([]*xmltree.Node, len(docs))
		t0 := time.Now()
		for i, d := range docs {
			n, err := xmltree.ParseString(d)
			if err != nil {
				return err
			}
			nodes[i] = n
		}
		lt.d[lXMLParse] = time.Since(t0)
		bins := make([][]byte, len(docs))
		t0 = time.Now()
		for i, n := range nodes {
			bins[i] = xmltree.EncodeBinary(n, l.dict)
		}
		lt.d[lXMLEncode] = time.Since(t0)
		ops := make([]core.IngestOp, len(docs))
		recs := make([]uint32, len(docs))
		for i, b := range bins {
			rec, err := l.st.AppendBytes(b)
			if err != nil {
				return err
			}
			recs[i] = rec
			ops[i] = core.IngestOp{Kind: core.IngestOpInsert, Rec: rec, XML: []byte(docs[i])}
		}
		t0 = time.Now()
		if err := l.wal.AppendBatch(ops); err != nil {
			return err
		}
		lt.d[lWAL] = time.Since(t0)
		t0 = time.Now()
		if err := l.ix.InsertDocumentsCtx(ctx, recs); err != nil {
			return err
		}
		lt.d[lInsert] = time.Since(t0)
		lg.insertNS += int64(lt.d[lInsert])
		lg.insertedDocs += int64(len(docs))
	}
	lg.record(per, ingestLeaves, o.class, rep)
	return nil
}

// micro holds the micro-measurements of single calls on the workload's
// own documents and index.
type micro struct {
	bisimUSPerKElem, matrixUS, eigenUS float64
	parseMBs, encodeMBs                float64
	scanUSPerKEntry, putUS             float64
	pageWritesPerInsert, bytesPerEntry float64
	pages                              float64
}

// sampleDocs returns up to n documents of the kind the workload stores.
func (r *run) sampleDocs(n int) []string {
	var docs []string
	switch r.sp.name {
	case "xmark_read", "xmark_build":
		docs = xmarkEntities(xmarkDataSeed, xmarkBuildSeedScale)
	default:
		docs = dblpRecords(bibDataSeed, bibScale)
	}
	return docs[:min(n, len(docs))]
}

func (r *run) measureMicro(dir string) (micro, error) {
	var m micro
	docs := r.sampleDocs(2000)
	dict := xmltree.NewDict()
	enc := matrix.NewEdgeEncoder()
	nodes := make([]*xmltree.Node, len(docs))
	t0 := time.Now()
	for i, d := range docs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			return m, err
		}
		nodes[i] = n
	}
	m.parseMBs = float64(totalLen(docs)) / 1e6 / time.Since(t0).Seconds()
	t0 = time.Now()
	for _, n := range nodes {
		xmltree.EncodeBinary(n, dict)
	}
	m.encodeMBs = float64(totalLen(docs)) / 1e6 / time.Since(t0).Seconds()

	elems := 0
	var bisimD, matrixD, eigenD time.Duration
	for _, n := range nodes {
		elems += n.CountElements()
		t0 = time.Now()
		g, err := bisim.Build(bisim.FromXML(xmltree.NewTreeStream(n, 0), dict, nil), nil)
		bisimD += time.Since(t0)
		if err != nil {
			return m, err
		}
		mg := g.MatrixGraph()
		t0 = time.Now()
		edges, _ := matrix.BuildEdges(mg, enc, true)
		matrixD += time.Since(t0)
		t0 = time.Now()
		eigen.SkewMaxSparse(mg.NumVertices(), edges)
		eigenD += time.Since(t0)
	}
	m.bisimUSPerKElem = float64(bisimD) / 1e3 / (float64(elems) / 1000)
	m.matrixUS = float64(matrixD) / 1e3 / float64(len(nodes))
	m.eigenUS = float64(eigenD) / 1e3 / float64(len(nodes))

	// B-tree: a full scan of every index of the workload, then the scanned
	// entries put into a fresh tree in seeded random order.
	dirs := r.sp.dbDirs(dir)
	type kv struct{ k, v []byte }
	var entries []kv
	var scanD time.Duration
	var size int64 // bytes of every index file
	indexed := 0   // entries in every index
	for _, d := range dirs {
		l, err := openLeaf(d)
		if err != nil {
			return m, err
		}
		bt := l.ix.BTree()
		view, err := bt.FreezeView(nil)
		if err != nil {
			l.close()
			return m, err
		}
		t0 = time.Now()
		err = view.Scan(nil, nil, func(k, v []byte) bool {
			if len(entries) < 20000 {
				entries = append(entries, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
			}
			return true
		})
		scanD += time.Since(t0)
		size += bt.Size()
		indexed += view.Len()
		l.close()
		if err != nil {
			return m, err
		}
	}
	m.pages = float64(size / btree.DefaultPageSize)
	if indexed > 0 {
		m.scanUSPerKEntry = float64(scanD) / 1e3 / (float64(indexed) / 1000)
		m.bytesPerEntry = float64(size) / float64(indexed)
	}
	if len(entries) > 0 {
		rng := rand.New(rand.NewSource(r.seed))
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		f, err := storage.Create(filepath.Join(r.e.scratch, "ledger-put.btree"))
		if err != nil {
			return m, err
		}
		defer func() { _ = f.Close() }()
		bt, err := btree.Create(f, 0, 0)
		if err != nil {
			return m, err
		}
		t0 = time.Now()
		for _, e := range entries {
			if err := bt.Put(e.k, e.v); err != nil {
				return m, err
			}
		}
		if err := bt.Flush(); err != nil {
			return m, err
		}
		m.putUS = float64(time.Since(t0)) / 1e3 / float64(len(entries))
		m.pageWritesPerInsert = float64(bt.Stats().PageWrites) / float64(len(entries))
	}
	return m, nil
}

// buildStats bulk-builds the index in-process over a copy of the data,
// once with the default worker pool and once with one worker.
type buildTimes struct {
	wall, parse, bisim, eigen, insert float64 // seconds, default workers
	speedup                           float64
}

func (r *run) measureBuild(ctx context.Context, dir string) (buildTimes, error) {
	var bt buildTimes
	en, err := openEngine(r.sp, dir)
	if err != nil {
		return bt, err
	}
	defer func() { _ = en.close() }()
	depth := indexDepth
	if r.sp.collection {
		depth = 0
	}
	var one float64
	for _, db := range en.dbs {
		if err := db.BuildIndexWith(ctx, fix.DepthLimit(depth)); err != nil {
			return bt, err
		}
		st := db.IndexBuildStats()
		bt.wall += db.IndexBuildTime().Seconds()
		bt.parse += st.Parse.Seconds()
		bt.bisim += st.Bisim.Seconds()
		bt.eigen += st.Eigen.Seconds()
		bt.insert += st.Insert.Seconds()
		if err := db.BuildIndexWith(ctx, fix.DepthLimit(depth), fix.Workers(1)); err != nil {
			return bt, err
		}
		one += db.IndexBuildTime().Seconds()
	}
	if bt.wall > 0 {
		bt.speedup = one / bt.wall
	}
	return bt, nil
}

// writeTrace stores the spans under bench/out/.
func (e *env) writeTrace(workload string, tr *tracer) error {
	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644)
}

// covered is the part of an operation's HTTP latency that spans account
// for: the self times of the layers around fix (each the difference of
// two measured spans) plus the spans measured under fix. What is left
// out is fix's own self time, the residual that no span covers; left in,
// the parts would add up to the HTTP latency by construction.
func covered(self map[string]float64) float64 {
	sum := 0.0
	for layer, v := range self {
		if layer != lFix {
			sum += v
		}
	}
	return sum
}

// selfTimes turns layer times into self times for one operation kind:
// each layer minus its children. Only fix's is clipped at zero: its
// children are measured in a replay of their own and can come out longer
// than the fix span, which bench.ledger_coverage then shows as more
// than 1.
func selfTimes(d map[string]map[int][]float64, collectionMode, ingest bool, firstIngest int) (self map[string]float64, http float64) {
	self = map[string]float64{}
	http = layerMS(d, lHTTP, ingest, firstIngest)
	fixMS := layerMS(d, lFix, ingest, firstIngest)
	inner := fixMS
	if collectionMode {
		col := layerMS(d, lCollection, ingest, firstIngest)
		self[lCollection] = col - fixMS
		inner = col
	}
	self[lHTTP] = http - inner
	leaves := queryLeaves
	if ingest {
		leaves = ingestLeaves
	}
	sum := 0.0
	for _, l := range leaves {
		self[l] = layerMS(d, l, ingest, firstIngest)
		sum += self[l]
	}
	self[lFix] = max(fixMS-sum, 0)
	return self, http
}

// sortedKeys returns a map's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printLedger prints the self-time table of one operation kind.
func printLedger(workload, kind string, self map[string]float64, http float64) {
	fmt.Printf("%s ledger (%s): HTTP %.3f ms per op, of which spans cover %.3f ms; self times and their share of HTTP:\n", workload, kind, http, covered(self))
	for _, k := range sortedKeys(self) {
		fmt.Printf("  %-22s %9.4f ms  %5.1f%%\n", k, self[k], 100*ratio(self[k], http))
	}
}
