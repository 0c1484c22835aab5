package fix

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
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
// The record heap is the log. On a persistent DB a group commit appends
// its documents to data.heap, then one batch trailer naming its deletes
// and the dictionary's new labels, and fsyncs the heap — one fsync per
// batch, shared by every operation in it — before it applies the batch
// to the index under a single write-lock acquisition. The unit callers
// hand in is the submission (Ingester.Apply): an ordered list of adds and
// deletes that is queued, committed, published and acknowledged as one.
// A checkpoint commits the index over the heap as it stands; Open brings
// an index committed before the last batches up to the heap (see Open).
// In-memory DBs get the same batching and backpressure semantics without
// the trailers and the fsync.

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
	del  bool          // delete
	rec  uint32        // delete: the target
}

// AddOp parses doc under the DB's parse limits into the add operation of
// a submission. It is the only parse the document gets, and it happens
// before anything is queued: a server makes the operations of a whole
// request first, so malformed or oversized input is a client error that
// leaves nothing of the request behind.
func (db *DB) AddOp(doc string) (Op, error) {
	n, err := xmltree.ParseWithLimits(strings.NewReader(doc), db.parseLimits())
	if err != nil {
		return Op{}, err
	}
	return Op{tree: n}, nil
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
// not abort a batch mid-commit — once the heap fsync has made it
// durable, the apply runs to completion). The ingester still drains and
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
// commits the batch with one heap fsync and one index apply,
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
// The submission is queued as one element and never split: it is sealed
// inside one heap batch, applied under one write-lock acquisition and
// published once, together with whatever other callers' submissions
// share its group commit. Its operations take effect in order, so a
// delete may name a document added earlier in the same submission
// (records are assigned densely, so the caller can tell which); that
// document is then never visible. And it is all or nothing: a delete of
// a record the store has not assigned by that point rejects the whole
// submission with ErrUnknownDocument before any of it is numbered or
// stored — the other submissions of the group commit are unaffected.
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
// acknowledged operations are durable in the heap already.
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
// heap batch sharing one fsync, one index apply for the whole batch. It
// returns the assigned document IDs in argument order. On error nothing
// in the batch is visible or durable (the batch rolls back as a unit). For continuous concurrent ingest prefer an Ingester,
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
// commits it. Ingest entry points call it; from the first of them on a
// persistent DB every commit is durable, AddDocument's too.
func (db *DB) commitPending(ctx context.Context, subs []*submission) error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.streaming = true
	return db.commitLocked(ctx, subs)
}

// commitLocked commits one group commit and publishes it. Requires
// ingestMu (so the record count is stable and batches reach the heap in
// commit order). It holds pubMu throughout, so no generation is frozen
// over a batch before it is durable and indexed, and a rollback cuts
// records no view holds.
func (db *DB) commitLocked(ctx context.Context, subs []*submission) error {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	committed, err := db.commitBatch(ctx, subs, db.dir != "" && db.streaming)
	if committed {
		// Publish the post-batch state as a new generation so new Views
		// (and the pin-per-call DB query methods) observe the
		// acknowledged writes. A rolled-back batch publishes nothing: the
		// previous generation remains an exact snapshot of the pre-batch
		// state.
		db.publishLocked()
	}
	return err
}

// commitBatch is the group commit without the publish.
//
// Protocol: assign record numbers and validate every submission; append
// the batch's documents and tombstones to the heap; when durable, seal
// it with its trailer and fsync the heap (the durability point — after
// this returns success, the next Open keeps the batch); apply the batch
// to the index under the write lock. A failure or panic before the
// acknowledgement rolls the whole batch back — heap cut back past the
// batch and synced, its tombstones cleared — and degrades the index if
// its apply had begun, because a partial apply may have left entries
// behind.
//
// Validation failures are per submission, not per batch: a delete aimed
// at a record the store has not assigned by that point of the batch —
// the submission's own earlier adds count — marks its submission's err
// field (ErrUnknownDocument), and the whole submission is excluded from
// the numbering, the heap and the apply. Group commit coalesces unrelated
// callers into one batch, so one client's bad delete must not fail
// another client's valid submission.
func (db *DB) commitBatch(ctx context.Context, subs []*submission, durable bool) (bool, error) {
	pre := db.store.Mark()
	preRecords := db.store.NumRecords()
	nrec, nops := uint32(preRecords), 0
	valid := make([]*submission, 0, len(subs))
	for _, s := range subs {
		first := nrec
		s.recs = make([]uint32, len(s.ops))
		for i, op := range s.ops {
			switch {
			case op.tree != nil:
				s.recs[i] = nrec
				nrec++
			case !op.del:
				s.err = fmt.Errorf("fix: operation %d of a submission is the zero Op", i)
			case op.rec >= nrec:
				s.err = fmt.Errorf("%w: delete of record %d out of range (have %d)", ErrUnknownDocument, op.rec, nrec)
			default:
				s.recs[i] = op.rec
			}
			if s.err != nil {
				break
			}
		}
		if s.err != nil {
			nrec, s.recs = first, nil
			continue
		}
		nops += len(s.ops)
		valid = append(valid, s)
	}
	if nops == 0 {
		return false, nil // every submission was rejected individually; nothing to commit
	}
	marked, inserted, deleted, err := db.appendBatch(valid)
	if err == nil && durable {
		if err = db.store.Seal(); err == nil {
			err = db.store.Sync()
		}
	}
	if err != nil {
		db.rollbackBatch(pre, marked, nil)
		return false, err
	}
	// The batch is durable (acknowledged) past this point, so the apply
	// must run to completion even if the caller's context dies mid-batch:
	// cancellation must never roll back an acknowledged batch.
	if err := db.indexBatch(context.WithoutCancel(ctx), inserted, deleted); err != nil {
		db.rollbackBatch(pre, marked, err)
		return false, err
	}
	docs, fsyncs := int(nrec)-preRecords, 0
	if durable {
		fsyncs = 1
	}
	obs.Default().ObserveIngestBatch(docs, nops-docs, fsyncs)
	if db.dir != "" {
		db.lagOps += nops
	}
	return true, nil
}

// containBatch turns a panic of a batch's apply into an error wrapping
// ErrPanic (and counts it), so the caller can roll back.
func containBatch(err *error) {
	if r := recover(); r != nil {
		obs.Default().ObservePanicRecovered()
		*err = fmt.Errorf("%w: ingest batch: %v\n%s", ErrPanic, r, debug.Stack())
	}
}

// appendBatch stores a batch's documents and tombstones in the heap, in
// operation order, under containBatch; marked lists the tombstones the
// batch set, which a rollback clears. inserted and deleted are the
// records the index must gain and lose: an insert that a later operation
// of the batch deletes is stored and tombstoned but never indexed.
func (db *DB) appendBatch(subs []*submission) (marked, inserted, deleted []uint32, err error) {
	defer containBatch(&err)
	for _, s := range subs {
		for i, op := range s.ops {
			if op.tree == nil {
				fresh, derr := db.store.MarkDeleted(op.rec)
				if derr != nil {
					return marked, nil, nil, derr
				}
				if fresh {
					marked = append(marked, op.rec)
				}
				deleted = append(deleted, op.rec)
				continue
			}
			rec, aerr := db.store.AppendTree(op.tree)
			if aerr != nil {
				return marked, nil, nil, aerr
			}
			if rec != s.recs[i] {
				return marked, nil, nil, fmt.Errorf("fix: ingest batch stored record %d, expected %d", rec, s.recs[i])
			}
			inserted = append(inserted, rec)
		}
	}
	live := inserted[:0]
	for _, rec := range inserted {
		if !db.store.IsDeleted(rec) {
			live = append(live, rec)
		}
	}
	return marked, live, deleted, nil
}

// indexBatch applies a stored batch to the index under one write-lock
// acquisition, under containBatch. The index
// loses the entries of every deleted record in one DeleteDocuments pass,
// and the batch's inserts are indexed in one InsertDocumentsCtx call,
// which fans the per-document eigenvalue work out over the build worker
// pool instead of computing it one document at a time under the write
// lock. An operation that stores fine but cannot be indexed
// (ErrRebuildRequired) degrades the index and does not fail the batch —
// durability never depends on the index.
func (db *DB) indexBatch(ctx context.Context, inserted, deleted []uint32) (err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer containBatch(&err)
	if db.index == nil || db.index.Health() != nil {
		return nil
	}
	if len(deleted) > 0 {
		if _, err := db.index.DeleteDocuments(deleted); err != nil {
			return err
		}
	}
	if err := db.index.InsertDocumentsCtx(ctx, inserted); err != nil {
		if !errors.Is(err, ErrRebuildRequired) {
			return err
		}
		db.index.Degrade(err)
	}
	return nil
}

// rollbackBatch undoes a failed batch: the heap is cut back to pre and
// synced, so a crash cannot bring the unacknowledged batch back, and the
// tombstones it set are cleared. An index apply that had begun (cause
// non-nil) degrades the index — a partial apply may have inserted entries
// that now point past the cut heap, and degradation routes queries to the
// exact scan fallback until a rebuild. Rollback steps are best-effort: if
// the disk is failing they may fail too, and then the store takes no more
// appends and reopening the database keeps the batch only if its trailer
// reached the disk whole.
func (db *DB) rollbackBatch(pre storage.Mark, marked []uint32, cause error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store.Rollback(pre) == nil {
		_ = db.store.Sync()
	}
	for _, rec := range marked {
		db.store.UnmarkDeleted(rec)
	}
	if cause != nil && db.index != nil {
		db.index.Degrade(fmt.Errorf("fix: ingest batch rolled back: %w", cause))
	}
}

// IngestLag returns the number of operations committed since the last
// checkpoint — what a crash right now would make Open bring the index up
// to the heap with, cleared by Checkpoint. It is 0 right after Open and
// for in-memory DBs.
func (db *DB) IngestLag() int {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	return db.lagOps
}

// DeletedDocuments returns how many documents are tombstoned (deleted
// but still occupying heap space until a rebuild).
func (db *DB) DeletedDocuments() int { return db.store.NumDeleted() }
