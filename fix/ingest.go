package fix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// Durable batched ingest. The write path mirrors the read path's
// robustness contract: every acknowledged operation survives a crash,
// every failure is a typed error, and nothing blocks unboundedly.
//
// On a persistent DB the first ingest call creates fix.ingest, a
// write-ahead log based at the last committed store state. Each batch is
// appended and fsynced there *before* it touches the heap or the index —
// one fsync per batch, shared by every operation in it (group commit) —
// and the batch is applied under a single write-lock acquisition. The
// unit callers hand in is the submission (Ingester.Apply): an ordered
// list of adds and deletes that is queued, logged, applied, published
// and acknowledged as one.
// Save absorbs the log's contents into the regular commit (heap sync,
// dictionary, tombstones, shadow-committed index) and only then resets
// the log; Open replays a surviving log after a crash. In-memory DBs get
// the same batching and backpressure semantics without the log.

// ErrIngestQueueFull reports that the ingester's bounded queue stayed
// full past the configured enqueue wait. The operation was not accepted
// and will never be applied; retry with exponential backoff (the queue
// drains at the disk's group-commit rate), or widen
// IngestConfig.QueueDepth / EnqueueWait if this is the steady state.
var ErrIngestQueueFull = errors.New("fix: ingest queue full; retry with backoff")

// ErrIngesterClosed reports an operation submitted to an Ingester after
// Close.
var ErrIngesterClosed = errors.New("fix: ingester closed")

// ErrUnknownDocument reports a delete aimed at a record number the
// store has never assigned. The submission holding it fails as a whole
// and alone: group commit coalesces submissions from unrelated callers
// into one batch, and their valid submissions still commit.
var ErrUnknownDocument = errors.New("fix: unknown document")

// ErrRebuildRequired reports an index-maintenance failure only a full
// rebuild can clear (inserting into a degraded index, or a new element
// label colliding with a value index's hash range fixed at build time).
// The document itself is stored durably; the index degrades and queries
// keep answering exactly via the scan fallback until RebuildIndex.
var ErrRebuildRequired = core.ErrRebuildRequired

// fileCreate and fileOpen are the seams through which the DB creates and
// opens its own files (the record heap and the ingest log); ingest crash
// tests swap them for fault-injecting variants, mirroring the core
// index's indexFS seam.
var fileCreate = storage.Create
var fileOpen = storage.Open

// IngestConfig tunes an Ingester. The zero value is ready to use.
type IngestConfig struct {
	// QueueDepth bounds the ingest queue, counted in submissions (one
	// Apply, Add, AddBatch or Delete call each); submissions beyond it
	// hit backpressure. 0 means 256.
	QueueDepth int
	// MaxBatch closes a group commit once it holds this many operations.
	// A submission is never split, so the last one taken may carry the
	// batch past it. 0 means 64.
	MaxBatch int
	// EnqueueWait is how long a full queue blocks a submitter before
	// failing fast with ErrIngestQueueFull. 0 means 50ms; negative
	// means fail immediately.
	EnqueueWait time.Duration
}

func (c *IngestConfig) setDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.EnqueueWait == 0 {
		c.EnqueueWait = 50 * time.Millisecond
	}
}

// Op is one operation of a submission: the add of a document, made by
// DB.AddOp, or the delete of a record, made by DeleteOp. The zero Op is
// neither, and a submission holding one is rejected.
type Op struct {
	tree *xmltree.Node // add: the parsed document; nil otherwise
	xml  []byte        // add: the document text, as the WAL logs it
	del  bool          // delete
	rec  uint32        // delete: the target
}

// AddOp parses doc under the DB's parse limits into the add operation of
// a submission. It is the only parse the document gets, and it happens
// before anything is queued: a server makes the operations of a whole
// request first, so malformed or oversized input is a client error that
// leaves nothing of the request behind.
func (db *DB) AddOp(doc string) (Op, error) {
	raw := []byte(doc)
	n, err := xmltree.ParseWithLimits(bytes.NewReader(raw), db.parseLimits())
	if err != nil {
		return Op{}, err
	}
	return Op{tree: n, xml: raw}, nil
}

// addOps is AddOp over docs; the first document that fails fails them all.
func (db *DB) addOps(docs []string) ([]Op, error) {
	ops := make([]Op, len(docs))
	for i, doc := range docs {
		var err error
		if ops[i], err = db.AddOp(doc); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// DeleteOp returns the operation that deletes record rec: the record is
// tombstoned (excluded from every query path) and its index entries are
// removed. The record's bytes stay in the append-only heap until a
// rebuild; deleting a deleted record again is not an error.
func DeleteOp(rec uint32) Op { return Op{del: true, rec: rec} }

// RootLabel returns the label of an add's root element — what a sharded
// collection routes the document by — and "" for a delete.
func (o Op) RootLabel() string {
	if o.tree == nil {
		return ""
	}
	return o.tree.Label
}

// submission is one caller's ordered list of operations: the unit of
// queueing, of atomicity and of acknowledgement. done is buffered so the
// committer never blocks on an abandoned caller.
type submission struct {
	ops   []Op
	recs  []uint32 // per op, set at commit: the record an add was assigned or a delete named
	flush bool     // barrier marker without ops: commit everything queued before it
	err   error    // rejection of this submission alone, overriding the batch outcome
	done  chan error
}

// Ingester is a handle for concurrent streaming ingest into a DB. Many
// goroutines may call Apply/Add/Delete concurrently; a single committer
// coalesces their submissions into group-committed batches, so N
// concurrent writers cost ~one fsync per batch instead of one each.
// Acknowledgment (the nil error) means the submission is durable (on a
// persistent DB) and visible to queries.
//
// The queue is bounded: when it stays full past IngestConfig.EnqueueWait
// the submission fails fast with ErrIngestQueueFull rather than queueing
// unbounded work.
type Ingester struct {
	db  *DB
	cfg IngestConfig
	ctx context.Context // committer-goroutine context; immutable after NewIngesterCtx

	mu     sync.RWMutex // guards closed and sends on subs vs. Close
	closed bool
	subs   chan *submission

	exited chan struct{} // closed when the committer goroutine returns
}

// NewIngester starts an ingester over db. Close it when done; an open
// ingester holds one background goroutine. It is NewIngesterCtx with
// context.Background().
func (db *DB) NewIngester(cfg IngestConfig) *Ingester {
	return db.NewIngesterCtx(context.Background(), cfg)
}

// NewIngesterCtx is NewIngester with a context for the committer
// goroutine: batch application carries its values (cancellation does
// not abort a batch mid-commit — once the WAL fsync has acknowledged
// it, the apply runs to completion). The ingester still drains and
// exits through Close, not through ctx.
func (db *DB) NewIngesterCtx(ctx context.Context, cfg IngestConfig) *Ingester {
	cfg.setDefaults()
	ing := &Ingester{
		db:     db,
		cfg:    cfg,
		ctx:    ctx,
		subs:   make(chan *submission, cfg.QueueDepth),
		exited: make(chan struct{}),
	}
	go ing.commitLoop()
	return ing
}

// commitLoop is the single committer. It takes the first queued
// submission, adds whatever else is already queued — without waiting —
// until the batch holds MaxBatch operations or ends in a flush marker,
// commits the batch with one WAL fsync and one write-lock acquisition,
// and acknowledges every submission with the batch's outcome. Group
// commit clocks itself: what arrives while batch k is in its fsync and
// apply is batch k+1, so concurrent writers share fsyncs and a lone
// writer waits for nobody.
func (ing *Ingester) commitLoop() {
	defer close(ing.exited)
	for first := range ing.subs {
		batch := []*submission{first}
		nops := len(first.ops)
	drain:
		for last := first; !last.flush && nops < ing.cfg.MaxBatch; {
			select {
			case next, ok := <-ing.subs:
				if !ok {
					break drain
				}
				batch = append(batch, next)
				nops += len(next.ops)
				last = next
			default:
				break drain
			}
		}
		var err error
		if nops > 0 {
			err = ing.db.commitPending(ing.ctx, batch)
		}
		for _, s := range batch {
			// A submission rejected during validation (s.err) reports its
			// own failure; the batch outcome belongs to the submissions
			// that were actually committed.
			if s.err != nil {
				s.done <- s.err
			} else {
				s.done <- err
			}
		}
	}
}

// submit queues s and waits for the committer's verdict on it.
func (ing *Ingester) submit(ctx context.Context, s *submission) error {
	if err := ing.enqueue(ctx, s); err != nil {
		return err
	}
	// A context cancellation abandons the wait, not the submission: its
	// batch may still commit.
	select {
	case err := <-s.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enqueue queues s, applying backpressure: an immediate slot if one is
// free, otherwise a bounded wait, then fail-fast.
func (ing *Ingester) enqueue(ctx context.Context, s *submission) error {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	if ing.closed {
		return ErrIngesterClosed
	}
	s.done = make(chan error, 1)
	select {
	case ing.subs <- s:
		return nil
	default:
	}
	if ing.cfg.EnqueueWait < 0 {
		obs.Default().ObserveIngestQueueFull(1)
		return ErrIngestQueueFull
	}
	timer := time.NewTimer(ing.cfg.EnqueueWait)
	defer timer.Stop()
	select {
	case ing.subs <- s:
		return nil
	case <-timer.C:
		obs.Default().ObserveIngestQueueFull(1)
		return ErrIngestQueueFull
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Apply submits ops — adds and deletes, in the caller's order — as one
// submission and returns, per operation, the record it added or deleted.
// A nil error means all of it is durable and visible.
//
// The submission is queued as one element and never split: it is logged
// inside one WAL batch, applied under one write-lock acquisition and
// published once, together with whatever other callers' submissions
// share its group commit. Its operations take effect in order, so a
// delete may name a document added earlier in the same submission
// (records are assigned densely, so the caller can tell which); that
// document is then never visible. And it is all or nothing: a delete of
// a record the store has not assigned by that point rejects the whole
// submission with ErrUnknownDocument before any of it is numbered or
// logged — the other submissions of the group commit are unaffected.
func (ing *Ingester) Apply(ctx context.Context, ops []Op) ([]uint32, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	s := &submission{ops: ops}
	if err := ing.submit(ctx, s); err != nil {
		return nil, err
	}
	return s.recs, nil
}

// Add parses one XML document and submits it. The returned ID is
// assigned at commit; a nil error means the document is durable and
// visible. Parse failures are rejected before anything is queued.
func (ing *Ingester) Add(ctx context.Context, doc string) (uint32, error) {
	recs, err := ing.AddBatch(ctx, []string{doc})
	if err != nil {
		return 0, err
	}
	return recs[0], nil
}

// AddBatch parses docs and submits them as one submission (see Apply);
// the returned IDs are in argument order.
func (ing *Ingester) AddBatch(ctx context.Context, docs []string) ([]uint32, error) {
	ops, err := ing.db.addOps(docs)
	if err != nil {
		return nil, err
	}
	return ing.Apply(ctx, ops)
}

// Delete submits the durable delete of document rec (see DeleteOp). A
// record the store never assigned fails with ErrUnknownDocument.
func (ing *Ingester) Delete(ctx context.Context, rec uint32) error {
	_, err := ing.Apply(ctx, []Op{DeleteOp(rec)})
	return err
}

// Flush blocks until everything queued before it has been committed.
func (ing *Ingester) Flush(ctx context.Context) error {
	return ing.submit(ctx, &submission{flush: true})
}

// QueueLen reports how many submissions are waiting in the queue — the
// in-memory half of ingest lag (DB.IngestLag is the durable half).
func (ing *Ingester) QueueLen() int { return len(ing.subs) }

// Close stops accepting submissions, waits for the committer to drain
// and commit everything already queued, and returns. It does not Save:
// the WAL keeps acknowledged operations durable until the next Save.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	if !ing.closed {
		ing.closed = true
		close(ing.subs)
	}
	ing.mu.Unlock()
	<-ing.exited
	return nil
}

// IngestBatchCtx ingests a batch of documents in one group commit: one
// WAL append sharing one fsync, one write-lock acquisition for the whole
// batch. It returns the assigned document IDs in argument order. On
// error nothing in the batch is visible or durable (the batch rolls
// back as a unit). For continuous concurrent ingest prefer an Ingester,
// which coalesces batches across callers.
func (db *DB) IngestBatchCtx(ctx context.Context, docs []string) ([]uint32, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	ops, err := db.addOps(docs)
	if err != nil {
		return nil, err
	}
	return db.commitOne(ctx, ops)
}

// DeleteDocument durably deletes document rec: the record is tombstoned
// — excluded from queries, scans, and Exists — and its index entries are
// removed. The record's bytes stay in the append-only heap until a
// rebuild. It is DeleteDocumentCtx with context.Background().
func (db *DB) DeleteDocument(rec uint32) error {
	return db.DeleteDocumentCtx(context.Background(), rec)
}

// DeleteDocumentCtx is DeleteDocument with cancellation (observed before
// the commit starts; the commit itself is not interruptible).
func (db *DB) DeleteDocumentCtx(ctx context.Context, rec uint32) error {
	_, err := db.commitOne(ctx, []Op{DeleteOp(rec)})
	return err
}

// commitOne commits ops as a submission of their own, in a group commit
// of their own, without going through an Ingester's queue.
func (db *DB) commitOne(ctx context.Context, ops []Op) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &submission{ops: ops}
	if err := db.commitPending(ctx, []*submission{s}); err != nil {
		return nil, err
	}
	return s.recs, s.err
}

// commitPending serializes one batch against every other mutation and
// commits it. Ingest entry points call it; the legacy AddDocument path
// shares commitLocked underneath.
func (db *DB) commitPending(ctx context.Context, subs []*submission) error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	if err := db.ensureIngestLog(); err != nil {
		return err
	}
	return db.commitLocked(ctx, subs)
}

// ensureIngestLog lazily creates fix.ingest on a persistent DB, first
// making the log's base durable: the heap prefix is fsynced and the
// dictionary and tombstone sidecar saved, so replay re-parses documents
// against exactly the label assignments the original encoding used.
// Requires ingestMu. In-memory DBs never have a log.
func (db *DB) ensureIngestLog() error {
	if db.wal != nil || db.dir == "" {
		return nil
	}
	if err := db.store.Sync(); err != nil {
		return fmt.Errorf("fix: syncing heap for ingest log base: %w", err)
	}
	if err := db.saveDict(); err != nil {
		return fmt.Errorf("fix: saving dictionary for ingest log base: %w", err)
	}
	if err := db.saveTombs(); err != nil {
		return fmt.Errorf("fix: saving tombstones for ingest log base: %w", err)
	}
	f, err := fileCreate(filepath.Join(db.dir, core.IngestLogName))
	if err != nil {
		return fmt.Errorf("fix: creating ingest log: %w", err)
	}
	lg, err := core.NewIngestLog(f, uint32(db.store.NumRecords()), db.store.Size())
	if err != nil {
		_ = f.Close()
		return err
	}
	db.wal = lg
	return nil
}

// commitLocked is the group commit. Requires ingestMu (so the record
// count is stable and the WAL is appended in commit order).
//
// Protocol: assign record numbers and validate every submission; append
// the batch to the WAL and fsync it (the durability point — after this
// returns success, recovery will replay the batch); apply the batch to
// the heap and index under the write lock. An apply failure or panic
// rolls the whole batch back — WAL suffix truncated first so a crash
// cannot resurrect the unacknowledged batch, then heap and tombstones
// restored — and conservatively degrades the index, because a partial
// apply may have left entries behind.
//
// Validation failures are per submission, not per batch: a delete aimed
// at a record the store has not assigned by that point of the batch —
// the submission's own earlier adds count — marks its submission's err
// field (ErrUnknownDocument), and the whole submission is excluded from
// the numbering, the WAL and the apply. Group commit coalesces unrelated
// callers into one batch, so one client's bad delete must not fail
// another client's valid submission.
func (db *DB) commitLocked(ctx context.Context, subs []*submission) error {
	preRecords := db.store.NumRecords()
	preEnd := db.store.Size()
	nrec := uint32(preRecords)
	var walOps []core.IngestOp
	valid := make([]*submission, 0, len(subs))
	for _, s := range subs {
		first, mark := nrec, len(walOps)
		s.recs = make([]uint32, len(s.ops))
		for i, op := range s.ops {
			switch {
			case op.tree != nil:
				s.recs[i] = nrec
				walOps = append(walOps, core.IngestOp{Kind: core.IngestOpInsert, Rec: nrec, XML: op.xml})
				nrec++
			case !op.del:
				s.err = fmt.Errorf("fix: operation %d of a submission is the zero Op", i)
			case op.rec >= nrec:
				s.err = fmt.Errorf("%w: delete of record %d out of range (have %d)", ErrUnknownDocument, op.rec, nrec)
			default:
				s.recs[i] = op.rec
				walOps = append(walOps, core.IngestOp{Kind: core.IngestOpDelete, Rec: op.rec})
			}
			if s.err != nil {
				break
			}
		}
		if s.err != nil {
			nrec, walOps, s.recs = first, walOps[:mark], nil
			continue
		}
		valid = append(valid, s)
	}
	if len(walOps) == 0 {
		return nil // every submission was rejected individually; nothing to commit
	}
	var walSize0 int64
	if db.wal != nil {
		walSize0 = db.wal.Size()
		if err := db.wal.AppendBatch(walOps); err != nil {
			return err // nothing durable, nothing applied, nothing acked
		}
	}
	// The batch is WAL-durable (acknowledged) past this point, so the
	// apply must run to completion even if the caller's context dies
	// mid-batch: cancellation must never roll back an acknowledged batch.
	if marked, err := db.applyBatch(context.WithoutCancel(ctx), valid); err != nil {
		db.rollbackBatch(marked, preRecords, preEnd, walSize0, len(walOps), err)
		return err
	}
	docs, fsyncs := int(nrec)-preRecords, 0
	if db.wal != nil {
		fsyncs = 1
	}
	obs.Default().ObserveIngestBatch(docs, len(walOps)-docs, fsyncs)
	// Publish the post-batch state as a new generation so new Views (and
	// the pin-per-call DB query methods) observe the acknowledged writes.
	// The rollback path above deliberately does not publish: the previous
	// generation remains an exact snapshot of the pre-batch state.
	db.publish()
	return nil
}

// applyBatch applies a WAL-durable batch to the heap and the index under
// one write-lock acquisition. A panic anywhere inside is contained into
// an error wrapping ErrPanic (and counted), so the caller can roll back;
// marked lists the tombstones the batch set, which a rollback clears.
// An operation that stores fine but cannot be indexed
// (ErrRebuildRequired) degrades the index and does not fail the batch —
// durability never depends on the index.
//
// Heap appends and tombstones run in operation order. The index then
// loses the entries of every deleted record in one DeleteDocuments pass,
// and the batch's inserts are indexed in one InsertDocumentsCtx call,
// which fans the per-document eigenvalue work out over the build worker
// pool instead of computing it one document at a time under the write
// lock. An insert that a later operation of the batch deletes is stored
// and tombstoned but never indexed, so running the delete pass before
// the inserts cannot leave an entry of it behind.
func (db *DB) applyBatch(ctx context.Context, subs []*submission) (marked []uint32, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			obs.Default().ObservePanicRecovered()
			err = fmt.Errorf("%w: ingest batch: %v\n%s", ErrPanic, r, debug.Stack())
		}
	}()
	var inserted, deleted []uint32
	for _, s := range subs {
		for i, op := range s.ops {
			if op.tree == nil {
				fresh, derr := db.store.MarkDeleted(op.rec)
				if derr != nil {
					return marked, derr
				}
				if fresh {
					marked = append(marked, op.rec)
				}
				deleted = append(deleted, op.rec)
				continue
			}
			rec, aerr := db.store.AppendTree(op.tree)
			if aerr != nil {
				return marked, aerr
			}
			if rec != s.recs[i] {
				return marked, fmt.Errorf("fix: ingest batch applied record %d, expected %d", rec, s.recs[i])
			}
			inserted = append(inserted, rec)
		}
	}
	if db.index == nil || db.index.Health() != nil {
		return marked, nil
	}
	if len(deleted) > 0 {
		if _, derr := db.index.DeleteDocuments(deleted); derr != nil {
			return marked, derr
		}
		live := inserted[:0]
		for _, rec := range inserted {
			if !db.store.IsDeleted(rec) {
				live = append(live, rec)
			}
		}
		inserted = live
	}
	if ierr := db.index.InsertDocumentsCtx(ctx, inserted); ierr != nil {
		if !errors.Is(ierr, ErrRebuildRequired) {
			return marked, ierr
		}
		db.index.Degrade(ierr)
	}
	return marked, nil
}

// rollbackBatch undoes a failed batch: the WAL suffix goes first (so a
// crash mid-rollback cannot replay the unacknowledged batch), then the
// heap and tombstones are restored to their pre-batch state, and the
// index is conservatively degraded — a partial apply may have inserted
// entries that now point past the truncated heap, and degradation routes
// queries to the exact scan fallback until a rebuild. Rollback steps are
// best-effort: if the disk is failing they may fail too, in which case
// reopening the database replays only acknowledged batches.
func (db *DB) rollbackBatch(marked []uint32, preRecords int, preEnd int64, walSize0 int64, nwal int, cause error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		_ = db.wal.TruncateBatch(walSize0, nwal)
	}
	for _, rec := range marked {
		db.store.UnmarkDeleted(rec)
	}
	_ = db.store.TruncateTo(preRecords, preEnd)
	if db.index != nil {
		db.index.Degrade(fmt.Errorf("fix: ingest batch rolled back: %w", cause))
	}
}

// IngestLag returns the number of acknowledged operations the ingest
// log is carrying ahead of the last Save — the work a crash would
// replay, cleared by Save. It is 0 for in-memory DBs and before the
// first ingest.
func (db *DB) IngestLag() int {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Ops()
}

// DeletedDocuments returns how many documents are tombstoned (deleted
// but still occupying heap space until a rebuild).
func (db *DB) DeletedDocuments() int { return db.store.NumDeleted() }

// saveTombs writes the tombstone sidecar (fix.tomb) atomically: temp
// file, fsync, rename — the same crash-safety bar as labels.dict. An
// empty set still writes the file, so a reopened DB never resurrects
// documents deleted before the last Save.
func (db *DB) saveTombs() error {
	path := filepath.Join(db.dir, "fix.tomb")
	data := storage.EncodeTombstones(db.store.DeletedRecords())
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// loadTombs restores the tombstone set from fix.tomb; a missing sidecar
// means no deletes were ever committed. A corrupt sidecar fails the open
// loudly — silently dropping it would resurrect deleted documents.
//
// A sidecar written by a Save that crashed before resetting the ingest
// log (wal, when non-nil) may carry tombstones for records at or past
// the log's base; the heap has just been truncated back to that base,
// so those records do not exist yet. Every such delete is necessarily
// still in the log — the sidecar is only rewritten while the log guards
// all post-base operations — so they are dropped here and re-applied by
// replay instead of failing the open.
func (db *DB) loadTombs(wal *core.IngestLog) error {
	data, err := os.ReadFile(filepath.Join(db.dir, "fix.tomb"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	recs, err := storage.DecodeTombstones(data)
	if err != nil {
		return fmt.Errorf("fix: loading tombstones: %w", err)
	}
	if wal != nil {
		base, _ := wal.Base()
		kept := recs[:0]
		for _, r := range recs {
			if r < base {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	return db.store.SetDeleted(recs)
}
