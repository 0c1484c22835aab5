// Package fix is the public API of the FIX feature-based XML index
// (Zhang, Özsu, Ilyas, Aboulnaga: "FIX: Feature-based Indexing Technique
// for XML Documents", University of Waterloo TR CS-2006-07 / VLDB 2006).
//
// A DB holds a collection of XML documents in a primary storage heap.
// BuildIndex constructs a FIX index over them: every indexable unit (a
// whole document, or a depth-limited subpattern rooted at each element of
// large documents) is reduced to its bisimulation graph, translated into
// an anti-symmetric matrix, and keyed in a B-tree by the extreme
// eigenvalues of that matrix together with its root label. Queries in the
// supported XPath fragment (child and descendant axes, branching
// predicates, value-equality predicates) are answered by an eigenvalue
// range scan that prunes the search space without false negatives,
// followed by navigational refinement of the candidates.
//
// Basic use:
//
//	db, _ := fix.CreateMem()
//	db.AddDocumentString(`<article><author><email>x</email></author></article>`)
//	db.BuildIndex(fix.IndexOptions{})
//	res, _ := db.Query(`//article[author]`)
//
// # Concurrency and cancellation
//
// Index construction fans out over a bounded worker pool
// (IndexOptions.Workers; zero means one worker per CPU), and the index
// bytes produced are identical for every worker count. A query runs on
// its caller's goroutine; concurrent queries run in parallel. Every
// potentially long-running operation has a context-aware form —
// BuildIndexCtx, QueryCtx, ExistsCtx, QueryDocumentsCtx, RebuildIndexCtx
// — that observes cancellation promptly and returns ctx.Err(); the
// context-free methods are shorthands delegating with context.Background.
//
// # Configuring builds
//
// IndexOptions remains the stable struct form. New code should prefer
// BuildIndexWith and the functional options, which cannot break at
// compile time when option fields are added:
//
//	err := db.BuildIndexWith(ctx, fix.Workers(8), fix.DepthLimit(6))
//
// Migrating is mechanical: BuildIndex(IndexOptions{DepthLimit: 6,
// Values: true}) becomes BuildIndexWith(ctx, fix.DepthLimit(6),
// fix.Values()); a zero-value IndexOptions{} becomes BuildIndexWith(ctx)
// with no options.
//
// # Observability
//
// Every query and build is recorded in a process-wide lock-free metrics
// registry; Metrics returns it merged with the DB's cumulative B-tree
// and storage I/O counters, and PublishExpvar exposes the same view as
// an expvar variable. Per-query detail is opt-in: the Trace query
// option returns a full per-phase QueryTrace on Result.Trace, and
// Options.OnSlowQuery installs a threshold-triggered slow-query log.
// Result.Effectiveness reads the paper's §6.2 measures (selectivity,
// pruning power, false-positive ratio) off the query's own run.
// The counters are named after the paper's §6 accounting (entries,
// candidates, matched entries; page reads; sequential vs. random record
// reads) — docs/OBSERVABILITY.md is the complete reference.
package fix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// ErrCorrupt reports that index data on disk failed validation (a page
// checksum mismatch, a torn write, structural damage). Errors returned by
// VerifyIndex and IndexHealth can be tested against it with errors.Is. A
// corrupt index never produces wrong query answers: queries degrade to a
// full scan of the primary store until RebuildIndex repairs the index.
var ErrCorrupt = core.ErrCorrupt

// DB is a document database with an optional FIX index. Concurrent
// queries are safe and lock-free: every read runs against an immutable
// published generation — a frozen B-tree image, record table, and
// tombstone set — pinned for the duration of the call, so queries scale
// across cores and never contend with writers. Concurrent ingest
// (AddDocument, IngestBatchCtx, DeleteDocument, an Ingester) is safe
// alongside them: mutations serialize on an internal ingest lock, apply
// under a write lock, and publish the next generation with one atomic
// pointer swap — in-flight queries keep reading the generation they
// pinned and never see a torn index. BuildIndex/RebuildIndex/Save also
// serialize with ingest. For repeatable reads across several queries,
// pin a snapshot explicitly with View.
type DB struct {
	dir     string
	dict    *xmltree.Dict
	store   *storage.Store
	index   *core.Index
	obsOpts Options

	// mu orders index application and replacement (write lock) against
	// generation freezes (read lock). ingestMu serializes the whole write
	// path — heap batch, index apply, Save, build — and is always
	// acquired before mu. The `lockcheck: order` ranks encode the
	// documented hierarchy (ingestMu → pubMu → mu) for fixvet's
	// lockorder pass; the collection registry's mutex ranks below all of
	// them (see internal/collection).
	mu       sync.RWMutex // lockcheck: order 40
	ingestMu sync.Mutex   // lockcheck: order 20
	// Guarded by ingestMu: streaming is set by the first streaming
	// ingest, from which on every commit of a persistent DB is sealed and
	// fsynced; lagOps counts the operations committed since the last
	// checkpoint, and ckptEnd is the heap's size at it.
	streaming bool
	lagOps    int
	ckptEnd   int64

	// pubMu serializes generation publication. Lock order: ingestMu →
	// pubMu → mu (read); pubMu is never held while acquiring ingestMu
	// or the mu write lock.
	pubMu sync.Mutex // lockcheck: order 30
	// gen is the published generation queries pin; swapped atomically
	// by publish, never mutated in place.
	gen      atomic.Pointer[core.Generation]
	genSeq   atomic.Uint64
	liveGens atomic.Int64

	// lastCheckpoint is the unix-nano time of the last completed commit
	// (Save, Checkpoint, or an index build's absorb), seeded at
	// creation/open so checkpoint age is measured from a real baseline.
	lastCheckpoint atomic.Int64
}

// IndexOptions configures BuildIndex. The zero value indexes whole
// documents (the collection scenario) with the paper's defaults.
type IndexOptions struct {
	// DepthLimit is Algorithm 1's subpattern depth limit L. Zero indexes
	// each document as one entry; a positive limit enumerates one
	// depth-L subpattern per element, which is the right choice for
	// large documents (the paper uses 6).
	DepthLimit int
	// Values integrates text nodes into the structural index via hashing
	// (paper §4.6), enabling index support for value-equality
	// predicates.
	Values bool
	// Beta is the value-hash range; 0 means the paper's default of 10.
	Beta uint32
	// EdgeBudget caps the bisimulation graph size for eigenvalue
	// computation; 0 means the paper's default of 3000 edges.
	EdgeBudget int
	// PaperPruning selects the paper's literal pruning bound instead of
	// the provably complete default; see DESIGN.md before enabling.
	PaperPruning bool
	// Workers bounds the worker pool used by index construction; queries
	// do not use it. Zero means one worker per available CPU
	// (GOMAXPROCS); 1 forces sequential execution. The index bytes
	// produced are identical for every value.
	Workers int
}

// BuildStats reports where the last BuildIndex spent its time. Parse,
// Bisim and Eigen are summed across workers, so on a multi-core build
// they can exceed Wall; Insert is the sequential rest: collecting the
// entries, sorting them and packing the B-tree bottom-up.
type BuildStats struct {
	Workers                     int
	Records, Units              int
	Parse, Bisim, Eigen, Insert time.Duration
	Wall                        time.Duration
}

// UnitsPerSec returns indexing throughput in units per wall-clock second.
func (s BuildStats) UnitsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Units) / s.Wall.Seconds()
}

// Result reports the outcome and the pruning statistics of one query.
type Result struct {
	// Count is the number of output-node matches.
	Count int
	// Entries, Candidates and MatchedEntries expose the pruning
	// pipeline: total index entries, entries surviving the feature
	// filter and the pair sketch, and candidates that produced at least
	// one result. SketchPruned counts the entries the feature filter kept
	// and the sketch dropped, so Candidates + SketchPruned is the paper's
	// cdt. SharedMatches counts the candidates answered by the match of
	// their chunk's first live unit instead of a match of their own.
	Entries, Candidates, MatchedEntries int
	SketchPruned, SharedMatches         int
	// ScanFallback reports that the index was degraded (corruption was
	// detected, or it is stale relative to the store) and the result came
	// from a full sequential scan instead. The count is still exact.
	ScanFallback bool
	// Trace is the full execution trace when tracing was enabled for
	// this query (the Trace option, or a configured slow-query
	// log), nil otherwise.
	Trace *QueryTrace
}

// Effectiveness are the implementation-independent effectiveness
// measures of the paper's §6.2, returned by Result.Effectiveness. (This
// type was called Metrics before that name moved to the operational
// metrics snapshot — see the migration note on Metrics.)
type Effectiveness struct {
	Selectivity   float64 // 1 - rst/ent
	PruningPower  float64 // 1 - cdt/ent
	FalsePosRatio float64 // 1 - rst/cdt
}

// Effectiveness returns the paper's §6.2 measures of the query's run: ent
// is Entries, cdt is Candidates + SketchPruned and rst is MatchedEntries.
// ok is false when the index did not answer the query — it was scanned
// (ScanOnly, a degraded index, a query deeper than the depth limit, no
// index) — or holds no entries, where the ratios are undefined.
func (r Result) Effectiveness() (m Effectiveness, ok bool) {
	if r.Entries == 0 {
		return Effectiveness{}, false
	}
	cm := core.Result{Entries: r.Entries, Candidates: r.Candidates, SketchPruned: r.SketchPruned, Matched: r.MatchedEntries}.Metrics()
	return Effectiveness{Selectivity: cm.Sel, PruningPower: cm.PP, FalsePosRatio: cm.FPR}, true
}

// CreateMem creates an empty in-memory database.
func CreateMem() (*DB, error) {
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		return nil, err
	}
	db := &DB{dict: dict, store: st, ckptEnd: st.Size()}
	db.lastCheckpoint.Store(time.Now().UnixNano())
	db.publish()
	return db, nil
}

// Create creates an empty database persisted under dir.
func Create(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := fileCreate(filepath.Join(dir, "data.heap"))
	if err != nil {
		return nil, err
	}
	dict := xmltree.NewDict()
	st, err := storage.NewStore(f, dict)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, dict: dict, store: st, ckptEnd: st.Size()}
	db.lastCheckpoint.Store(time.Now().UnixNano())
	db.publish()
	return db, nil
}

// Open opens a database previously persisted under dir, including its
// index if one was built. Before reading any index file it completes or
// discards a commit a crash interrupted (see core.Recover).
//
// The heap is the log: Open keeps data.heap up to the last batch whose
// trailer checks — every acknowledged write — and drops a batch a crash
// cut short, which was never acknowledged; bytes past that trailer that a
// crash cannot have left make it fail with ErrCorrupt (openIndex). The
// trailers restore the tombstones and the labels assigned since the last
// checkpoint. An index committed before the last batches is brought up to
// the heap by inserting the records past its count, with no XML parse,
// and removing what those batches deleted; Open then checkpoints it. If
// the index turns out to be corrupt or stale, the database still opens,
// IndexHealth reports the problem, and queries answer via the scan
// fallback. A directory written before batch trailers is converted first
// (convert).
func Open(dir string) (_ *DB, err error) {
	if err := core.Recover(dir); err != nil {
		return nil, fmt.Errorf("fix: recovering index journal: %w", err)
	}
	dict := xmltree.NewDict()
	if df, err := os.Open(filepath.Join(dir, "labels.dict")); err == nil {
		dict, err = xmltree.ReadDict(df)
		_ = df.Close()
		if err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := fileOpen(filepath.Join(dir, "data.heap"))
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, dict: dict}
	db.lastCheckpoint.Store(time.Now().UnixNano())
	defer func() {
		if err == nil {
			return
		}
		if db.index != nil {
			_ = db.index.Close()
		}
		if db.store != nil {
			_ = db.store.Close()
		} else {
			_ = f.Close()
		}
	}()
	converted, err := db.convert(f)
	if err != nil {
		return nil, err
	}
	if !converted {
		if db.store, err = storage.OpenStore(f, dict); err != nil {
			return nil, err
		}
		if err := db.openIndex(); err != nil {
			return nil, err
		}
		if err := db.dropOldFiles(); err != nil {
			return nil, err
		}
	}
	db.ckptEnd = db.store.Size()
	// Publish exactly one generation for the recovered state; the
	// checkpoints above deliberately skip publishing so a recovered
	// database never transiently exposes two.
	db.publish()
	return db, nil
}

// openIndex drops a torn batch from the heap and opens the index, if one
// was built, catching it up with the batches sealed after its commit and
// checkpointing it. Only the one batch a crash cut short is dropped: torn
// bytes that may hold a sealed batch (storage.ErrSealedTail), or records
// the index covers, were acknowledged, so they are damage, not a crash,
// and Open then fails with ErrCorrupt and leaves the heap as it found it.
func (db *DB) openIndex() error {
	st := db.store
	_, err := os.Stat(filepath.Join(db.dir, "fix.meta"))
	hasIndex := err == nil
	if st.TornTail() > 0 {
		if hasIndex {
			committed, err := core.CommittedRecords(db.dir)
			if err != nil {
				return fmt.Errorf("fix: opening index: %w", err)
			}
			if committed > st.NumRecords() {
				return fmt.Errorf("%w: heap: the batches whose trailer checks end at record %d, and the index covers %d saved documents", ErrCorrupt, st.NumRecords(), committed)
			}
		}
		if err := st.DropTornTail(); errors.Is(err, storage.ErrSealedTail) {
			return fmt.Errorf("%w: heap: %w; the batches whose trailer checks hold %d documents", ErrCorrupt, err, st.NumRecords())
		} else if err != nil {
			return err
		}
	}
	if !hasIndex {
		return nil
	}
	if db.index, err = core.Open(st, db.dir); err != nil {
		return fmt.Errorf("fix: opening index: %w", err)
	}
	n := db.index.CaughtUp()
	if n == 0 {
		return nil
	}
	obs.Default().ObserveIngestReplayed(n)
	// fix.btree is written only behind the shadow journal, so the tree
	// the catch-up started from was the last checkpoint's, whole. The
	// walk is fault detection for what that rule cannot exclude (a file an
	// older version left mixed, a bug in the catch-up). It checks the
	// tree's pages and chunks but reads no record — chunk agreement is
	// left to VerifyIndex — so it costs a walk of the index, not of the
	// heap. A failure latches degraded health, the checkpoint below is
	// skipped (a degraded index refuses Save), and queries stay exact
	// through the scan fallback until RebuildIndex.
	if db.index.VerifyStructure() != nil {
		return nil
	}
	if err := db.commitAll(); err != nil {
		return fmt.Errorf("fix: checkpointing the caught-up index: %w", err)
	}
	return nil
}

// Save flushes the database (and index, if built) to disk. It is an
// error on in-memory databases. It seals and fsyncs the heap's open
// batch, writes labels.dict through an fsynced temp file renamed into
// place and commits the index through its shadow-commit journal, so a
// crash during Save leaves either the previous or the new state, never a
// torn file.
//
// Save is Checkpoint.
func (db *DB) Save() error { return db.Checkpoint() }

// commitAll is Save without the generation publish: it takes the write
// locks and commits every file. Open's recovery uses it directly so
// recovery publishes exactly once, at the end.
func (db *DB) commitAll() error {
	if db.dir == "" {
		return fmt.Errorf("fix: Save on an in-memory database")
	}
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.saveLocked()
}

// saveLocked is the checkpoint: the heap, the dictionary, then the index
// committed over them. Callers hold ingestMu and mu (or have exclusive
// access, as during Open).
func (db *DB) saveLocked() error {
	if err := db.commitHeap(); err != nil {
		return err
	}
	if db.index != nil {
		if err := db.index.Save(); err != nil {
			return err
		}
	}
	db.checkpointed()
	return nil
}

// commitHeap saves the dictionary, then seals the heap's open batch —
// its trailer need name no label labels.dict holds — and fsyncs the heap,
// so that an index committed next finds every record it covers durable.
// The caller holds ingestMu.
func (db *DB) commitHeap() error {
	n := db.dict.Len()
	if err := db.saveDict(); err != nil {
		return err
	}
	db.store.LabelsSaved(n)
	if err := db.store.Seal(); err != nil {
		return err
	}
	return db.store.Sync()
}

// checkpointed records that the index now covers the whole heap. The
// caller holds ingestMu.
func (db *DB) checkpointed() {
	db.lagOps, db.ckptEnd = 0, db.store.Size()
	db.lastCheckpoint.Store(time.Now().UnixNano())
}

// saveDict writes labels.dict atomically: temp file, fsync, rename. The
// dictionary maps every stored record's label IDs, so a torn write here
// would make the whole database unreadable — the same crash-safety bar
// as fix.meta applies.
func (db *DB) saveDict() error {
	path := filepath.Join(db.dir, "labels.dict")
	tmp := path + ".tmp"
	df, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := db.dict.WriteTo(df); err != nil {
		_ = df.Close()
		os.Remove(tmp)
		return err
	}
	if err := df.Sync(); err != nil {
		_ = df.Close()
		os.Remove(tmp)
		return err
	}
	if err := df.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Close seals what was appended since the last trailer, syncs the heap
// and releases the underlying files: the heap and the index's. It does
// not Save: the index stays the last checkpoint's — nothing of the
// batches since has reached fix.btree — and the next Open brings it up to
// the heap. Views pinned before Close keep answering index probes from
// the image they hold; what they fetch from the heap fails.
func (db *DB) Close() error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	var first error
	if db.dir != "" {
		if first = db.store.Seal(); first == nil {
			first = db.store.Sync()
		}
	}
	if err := db.store.Close(); err != nil && first == nil {
		first = err
	}
	// Replace the published generation by one frozen over the closed
	// heap, which holds no mapping: the old one's goes with the last View
	// pinned to it, not with the process.
	db.publish()
	if ix := db.indexRef(); ix != nil {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AddDocument parses one XML document and appends it, returning its
// document ID. If an index exists, the document is indexed incrementally.
// The document must fit Options.ParseLimits (or the parser defaults);
// oversized input returns an error wrapping ErrDocumentLimit before
// anything is stored.
//
// AddDocument does not itself seal or fsync the heap — bulk loads stay
// fsync-free until Save, and the next trailer, whoever writes it, covers
// their records — but once streaming ingest (an Ingester,
// IngestBatchCtx, or DeleteDocument) has run on the DB, every
// AddDocument joins the durable path: its batch is sealed and fsynced
// before it is applied, so its acknowledgment carries the same crash
// guarantee. It is AddDocumentCtx with context.Background().
func (db *DB) AddDocument(r io.Reader) (uint32, error) {
	return db.AddDocumentCtx(context.Background(), r)
}

// AddDocumentCtx is AddDocument with a caller context (observed before
// the commit starts; a batch that has reached its heap fsync is applied
// to completion regardless, because it is already acknowledged-durable).
func (db *DB) AddDocumentCtx(ctx context.Context, r io.Reader) (id uint32, err error) {
	defer db.contain("AddDocumentCtx", true, &err)
	// The read is bounded like the streaming parse: ReadDocument stops at
	// the MaxBytes limit instead of letting an unbounded reader exhaust
	// memory before the parser's guards ever run.
	raw, err := xmltree.ReadDocument(r, db.parseLimits())
	if err != nil {
		return 0, err
	}
	n, err := xmltree.ParseWithLimits(bytes.NewReader(raw), db.parseLimits())
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s := &submission{ops: []Op{{tree: n}}}
	db.ingestMu.Lock()
	err = db.commitLocked(ctx, []*submission{s})
	db.ingestMu.Unlock()
	if err != nil {
		return 0, err
	}
	return s.recs[0], nil
}

// AddDocumentString is AddDocument for a string.
func (db *DB) AddDocumentString(s string) (uint32, error) {
	return db.AddDocument(strings.NewReader(s))
}

// NumDocuments returns the number of stored documents.
func (db *DB) NumDocuments() int { return db.store.NumRecords() }

// Document re-serializes the stored document as XML.
func (db *DB) Document(id uint32) (string, error) {
	cur, err := db.store.Cursor(id)
	if err != nil {
		return "", err
	}
	n, err := cur.Decode(0)
	if err != nil {
		return "", err
	}
	return xmltree.MarshalString(n), nil
}

// BuildIndex constructs the FIX index over all stored documents,
// replacing any previous index. It is BuildIndexCtx with
// context.Background().
func (db *DB) BuildIndex(opts IndexOptions) error {
	return db.BuildIndexCtx(context.Background(), opts)
}

// BuildIndexCtx constructs the FIX index over all stored documents,
// replacing any previous index. Construction fans out over
// opts.Workers goroutines (0 = one per CPU) and observes ctx: a
// cancelled build stops promptly, returns ctx.Err(), and leaves the
// database consistent — the previous index commit (or its absence)
// still governs what a reopened database sees, and BuildIndexCtx can
// simply be run again. A completed build on a persistent database is
// checkpointed before BuildIndexCtx returns, as Save would.
//
// A panic during construction is contained: it returns as an error
// wrapping ErrPanic, and the previous index (if any) stays in place —
// the build works on a replacement, so nothing live was touched.
func (db *DB) BuildIndexCtx(ctx context.Context, opts IndexOptions) (err error) {
	defer db.contain("BuildIndexCtx", false, &err)
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	ix, err := core.BuildCtx(ctx, db.store, core.Options{
		DepthLimit:   opts.DepthLimit,
		Values:       opts.Values,
		Beta:         opts.Beta,
		EdgeBudget:   opts.EdgeBudget,
		PaperPruning: opts.PaperPruning,
		Workers:      opts.Workers,
		Dir:          db.dir,
	})
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.index = ix
	db.mu.Unlock()
	// Publish before the checkpoint: the new index was built from the
	// full store, and queries should start using it even if the
	// checkpoint fails.
	db.publish()
	if db.dir == "" {
		return nil
	}
	// The build wrote fix.btree anew under the previous commit's
	// fix.meta; checkpointing now keeps a crash from pairing them.
	db.mu.Lock()
	err = db.saveLocked()
	db.mu.Unlock()
	if err != nil {
		return fmt.Errorf("fix: checkpointing the new index: %w", err)
	}
	return nil
}

// indexRef snapshots the current index pointer under the read lock.
// Index builds swap the field under the write lock, so any reader that
// can run concurrently with a rebuild — accessors, metrics, the
// background maintenance loops — must take its snapshot here rather
// than read db.index bare.
func (db *DB) indexRef() *core.Index {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.index
}

// HasIndex reports whether an index is available.
func (db *DB) HasIndex() bool { return db.indexRef() != nil }

// IndexHealth returns nil when there is no index or the index is healthy,
// and otherwise the reason the index was degraded (test with errors.Is
// against ErrCorrupt). A degraded index still answers queries correctly
// via the scan fallback; RebuildIndex restores full speed.
func (db *DB) IndexHealth() error {
	if ix := db.indexRef(); ix != nil {
		return ix.Health()
	}
	return nil
}

// VerifyIndex checks the on-disk integrity of the index: every B-tree
// page checksum and structure, entry counts, that every entry points at an
// existing record, and that no chunk says its units agree more deeply than
// the heap's records do (which it reads to recompute). It returns nil for a
// sound index, an error wrapping ErrCorrupt otherwise, and an error if no
// index exists.
func (db *DB) VerifyIndex() error {
	ix := db.indexRef()
	if ix == nil {
		return fmt.Errorf("fix: no index to verify")
	}
	return ix.Verify()
}

// RebuildIndex reconstructs the index from the primary store using the
// options it was built with, replacing the B-tree file. It is the repair
// path for a corrupt or stale index, and for one built with the retired
// clustered option, whose leftover fix.clustered heap it deletes.
func (db *DB) RebuildIndex() error {
	return db.RebuildIndexCtx(context.Background())
}

// RebuildIndexCtx is RebuildIndex with cancellation; see BuildIndexCtx
// for the semantics of an interrupted build.
func (db *DB) RebuildIndexCtx(ctx context.Context) (err error) {
	defer db.contain("RebuildIndexCtx", false, &err)
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	if db.index == nil {
		return fmt.Errorf("fix: no index to rebuild")
	}
	ix, err := core.BuildCtx(ctx, db.store, db.index.Options())
	if err != nil {
		return err
	}
	if db.dir != "" {
		// Checkpoint before publishing so readers never see an index
		// whose pages are mid-flush: the heap it covers first, then the
		// index itself.
		if err := db.commitHeap(); err != nil {
			return err
		}
		if err := ix.Save(); err != nil {
			return err
		}
	}
	db.mu.Lock()
	db.index = ix
	db.mu.Unlock()
	if db.dir != "" {
		db.checkpointed()
	}
	db.publish()
	return nil
}

// IndexEntries returns the number of index entries, or 0 without an
// index.
func (db *DB) IndexEntries() int {
	if ix := db.indexRef(); ix != nil {
		return ix.Entries()
	}
	return 0
}

// IndexSizeBytes returns the on-disk footprint of the index.
func (db *DB) IndexSizeBytes() int64 {
	if ix := db.indexRef(); ix != nil {
		return ix.SizeBytes()
	}
	return 0
}

// IndexBuildTime returns the wall-clock time of the last BuildIndex.
func (db *DB) IndexBuildTime() time.Duration {
	if ix := db.indexRef(); ix != nil {
		return ix.BuildTime()
	}
	return 0
}

// IndexBuildStats returns the per-phase timing breakdown of the last
// BuildIndex in this process. It is the zero value without an index or
// for an index loaded from disk.
func (db *DB) IndexBuildStats() BuildStats {
	ix := db.indexRef()
	if ix == nil {
		return BuildStats{}
	}
	s := ix.Stats()
	return BuildStats{
		Workers: s.Workers,
		Records: s.Records,
		Units:   s.Units,
		Parse:   s.Parse,
		Bisim:   s.Bisim,
		Eigen:   s.Eigen,
		Insert:  s.Insert,
		Wall:    s.Wall,
	}
}

// Query evaluates the XPath expression. With an index it runs the
// pruning + refinement pipeline; without one it falls back to a full
// navigational scan (Candidates and Entries are then zero). It is
// QueryCtx with context.Background().
func (db *DB) Query(expr string, opts ...QueryOption) (Result, error) {
	return db.QueryCtx(context.Background(), expr, opts...)
}

// QueryCtx is Query with cancellation: candidate refinement (and the
// scan fallback) fans records out over the worker pool and observes ctx,
// returning ctx.Err() promptly once it is cancelled — the refinement
// loop re-checks the context every few dozen node visits, so even one
// enormous subtree cannot stall a deadline.
//
// Resource governance: the query runs under the DB-wide Options.Limits
// unless QueryLimits overrides them. A Timeout wraps ctx with
// context.WithTimeout (expiry returns context.DeadlineExceeded); work
// budgets return an error wrapping ErrBudgetExceeded; a panic anywhere
// below the API comes back as an error wrapping ErrPanic instead of
// crashing the process. On any of these the Result still carries the
// partial trace (when tracing was on) attributing where the time went.
//
// Every query is recorded in the process-wide metrics registry (see
// Metrics) — a handful of atomic adds. Pass Trace to additionally
// collect a full per-phase execution trace on Result.Trace.
func (db *DB) QueryCtx(ctx context.Context, expr string, opts ...QueryOption) (Result, error) {
	v := db.View()
	defer v.Close()
	return v.QueryCtx(ctx, expr, opts...)
}

// Exists reports whether the query has at least one match. It is
// ExistsCtx with context.Background().
func (db *DB) Exists(expr string, opts ...QueryOption) (bool, error) {
	return db.ExistsCtx(context.Background(), expr, opts...)
}

// ExistsCtx is Exists with cancellation; verification stops at the first
// match. It pins the current generation for the duration of the call; see
// View.ExistsCtx.
func (db *DB) ExistsCtx(ctx context.Context, expr string, opts ...QueryOption) (bool, error) {
	v := db.View()
	defer v.Close()
	return v.ExistsCtx(ctx, expr, opts...)
}

// QueryDocuments returns the IDs of documents containing at least one
// match, in document order. It is QueryDocumentsCtx with
// context.Background().
func (db *DB) QueryDocuments(expr string, opts ...QueryOption) ([]uint32, error) {
	return db.QueryDocumentsCtx(context.Background(), expr, opts...)
}

// QueryDocumentsCtx is QueryDocuments with cancellation. Documents are
// verified in document order, which is the result order. It pins the
// current generation for the duration of the call; see
// View.QueryDocumentsCtx.
func (db *DB) QueryDocumentsCtx(ctx context.Context, expr string, opts ...QueryOption) ([]uint32, error) {
	v := db.View()
	defer v.Close()
	return v.QueryDocumentsCtx(ctx, expr, opts...)
}
