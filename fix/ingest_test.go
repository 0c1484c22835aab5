package fix

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/storage"
)

// useFS makes fsys the filesystem seam (storage.Disk) every file of a DB
// goes through until restore runs — the reboot after a crash, after
// which recovery sees the real files — or the test ends.
func useFS(t *testing.T, fsys storage.FS) (restore func()) {
	real := storage.Disk
	restore = func() { storage.Disk = real }
	t.Cleanup(restore)
	storage.Disk = fsys
	return restore
}

func mustExist(t *testing.T, db *DB, expr string, want bool) {
	t.Helper()
	ok, err := db.Exists(expr)
	if err != nil {
		t.Fatalf("Exists(%s): %v", expr, err)
	}
	if ok != want {
		t.Errorf("Exists(%s) = %v, want %v", expr, ok, want)
	}
}

func TestIngestBatchCtx(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.IngestBatchCtx(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(docs) {
		t.Fatalf("got %d ids for %d docs", len(ids), len(docs))
	}
	for i, id := range ids {
		if id != uint32(i) {
			t.Fatalf("ids = %v, want sequential from 0", ids)
		}
	}
	mustExist(t, db, "//author[phone]", true)

	// Empty and invalid batches.
	if ids, err := db.IngestBatchCtx(context.Background(), nil); err != nil || ids != nil {
		t.Fatalf("empty batch: %v, %v", ids, err)
	}
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>", "<broken"}); err == nil {
		t.Fatal("batch with a parse error was accepted")
	}
	if db.NumDocuments() != len(docs) {
		t.Fatalf("rejected batch changed the store: %d documents", db.NumDocuments())
	}
}

func TestDeleteDocument(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	pre, err := db.Query("//author[email]")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument(1); err != nil { // the only doc with a phone
		t.Fatal(err)
	}
	if db.NumDocuments() != len(docs) {
		t.Errorf("NumDocuments = %d after delete, want %d (tombstoned, not compacted)", db.NumDocuments(), len(docs))
	}
	if db.DeletedDocuments() != 1 {
		t.Errorf("DeletedDocuments = %d, want 1", db.DeletedDocuments())
	}
	mustExist(t, db, "//author[phone]", false)
	res, err := db.Query("//author[email]")
	if err != nil {
		t.Fatal(err)
	}
	if res.ScanFallback {
		t.Error("delete degraded the index")
	}
	if res.Count != pre.Count-1 {
		t.Errorf("count after delete = %d, want %d", res.Count, pre.Count-1)
	}
	// Indexed and scan-only answers agree on the tombstoned collection.
	scan, err := db.Query("//author[email]", ScanOnly())
	if err != nil {
		t.Fatal(err)
	}
	if scan.Count != res.Count {
		t.Errorf("scan count %d != indexed count %d", scan.Count, res.Count)
	}
	ids, err := db.QueryDocuments("//author")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == 1 {
			t.Error("QueryDocuments returned a deleted document")
		}
	}
	// Idempotent; out-of-range fails.
	if err := db.DeleteDocument(1); err != nil {
		t.Errorf("re-delete: %v", err)
	}
	if err := db.DeleteDocument(uint32(len(docs))); err == nil {
		t.Error("delete out of range succeeded")
	}
}

func TestIngesterBasic(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	ing := db.NewIngester(IngestConfig{})
	ctx := context.Background()

	recs, err := ing.AddBatch(ctx, docs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0] != 0 || recs[1] != 1 || recs[2] != 2 {
		t.Fatalf("AddBatch ids = %v, want [0 1 2]", recs)
	}
	id, err := ing.Add(ctx, docs[3])
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("Add id = %d, want 3", id)
	}
	if err := ing.Delete(ctx, recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if db.NumDocuments() != 4 || db.DeletedDocuments() != 1 {
		t.Fatalf("have %d docs / %d deleted, want 4 / 1", db.NumDocuments(), db.DeletedDocuments())
	}
	mustExist(t, db, "//author[phone]", false)

	if _, err := ing.Add(ctx, "<broken"); err == nil {
		t.Error("parse error accepted")
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := ing.Add(ctx, "<a/>"); !errors.Is(err, ErrIngesterClosed) {
		t.Errorf("Add after Close = %v, want ErrIngesterClosed", err)
	}
	if err := ing.Delete(ctx, 0); !errors.Is(err, ErrIngesterClosed) {
		t.Errorf("Delete after Close = %v, want ErrIngesterClosed", err)
	}
	if err := ing.Flush(ctx); !errors.Is(err, ErrIngesterClosed) {
		t.Errorf("Flush after Close = %v, want ErrIngesterClosed", err)
	}
}

func TestIngestBackpressure(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	// MaxBatch 1: the committer takes one submission off the queue and
	// then blocks on the ingest lock; with a larger batch it also takes
	// what it finds queued behind it, and how many submissions fit
	// depends on the schedule.
	ing := db.NewIngester(IngestConfig{QueueDepth: 2, EnqueueWait: -1, MaxBatch: 1})
	defer func() { _ = ing.Close() }()
	before := db.Metrics().IngestQueueFull

	// Stall the committer on the ingest lock, so the queue cannot drain.
	db.ingestMu.Lock()
	accepted, rejected := 0, 0
	for i := 0; i < 6; i++ {
		op, err := db.AddOp(fmt.Sprintf("<d><v>%d</v></d>", i))
		if err != nil {
			t.Fatal(err)
		}
		switch err := ing.enqueue(context.Background(), &submission{ops: []Op{op}}); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrIngestQueueFull):
			rejected++
		default:
			t.Fatalf("enqueue: %v", err)
		}
	}
	db.ingestMu.Unlock()

	// Queue depth 2 plus at most one submission already in the
	// committer's hands.
	if accepted < 2 || accepted > 3 {
		t.Errorf("accepted %d submissions on a depth-2 queue", accepted)
	}
	if rejected == 0 {
		t.Error("no submission hit backpressure")
	}
	// Flush competes with the backlog for the still-full queue
	// (EnqueueWait < 0 fails fast), so retry until it fits.
	for {
		err := ing.Flush(context.Background())
		if err == nil {
			break
		}
		if !errors.Is(err, ErrIngestQueueFull) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if db.NumDocuments() != accepted {
		t.Errorf("committed %d documents, accepted %d", db.NumDocuments(), accepted)
	}
	// Every rejection counted (retried Flushes may add more).
	if got := db.Metrics().IngestQueueFull - before; got < int64(rejected) {
		t.Errorf("queue-full counter grew by %d, want at least %d", got, rejected)
	}
}

func TestIngestRebuildRequiredDegrades(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{Values: true}); err != nil {
		t.Fatal(err)
	}
	// A document with element labels the value-hash range cannot absorb:
	// it must still be stored and acknowledged; the index degrades.
	id, err := db.AddDocumentString(`<zzz><qqq>new</qqq></zzz>`)
	if err != nil {
		t.Fatalf("ingest across a rebuild boundary failed: %v", err)
	}
	if id != uint32(len(docs)) {
		t.Fatalf("id = %d, want %d", id, len(docs))
	}
	health := db.IndexHealth()
	if health == nil || !errors.Is(health, ErrRebuildRequired) {
		t.Fatalf("IndexHealth = %v, want an error wrapping ErrRebuildRequired", health)
	}
	res, err := db.Query("//zzz")
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScanFallback || res.Count != 1 {
		t.Fatalf("query on degraded index: count=%d fallback=%v, want 1/true", res.Count, res.ScanFallback)
	}
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	if db.IndexHealth() != nil {
		t.Fatalf("rebuilt index unhealthy: %v", db.IndexHealth())
	}
	res, err = db.Query("//zzz")
	if err != nil {
		t.Fatal(err)
	}
	if res.ScanFallback || res.Count != 1 {
		t.Fatalf("query after rebuild: count=%d fallback=%v, want 1/false", res.Count, res.ScanFallback)
	}
}

// TestIngestLogLifecycle follows the heap as the log through a
// database's life: a bulk AddDocument seals nothing, the first streaming
// commit seals it with the batch, from then on AddDocument is sealed and
// fsynced too, IngestLag and WALBytes count what was committed since the
// last checkpoint, and Save clears them. No file beside the heap holds a
// write.
func TestIngestLogLifecycle(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddDocumentString(docs[0]); err != nil {
		t.Fatal(err)
	}
	fsyncs := db.Metrics().IngestFsyncs
	if db.IngestLag() != 1 || db.WALBytes() != db.store.Size()-8 {
		t.Fatalf("IngestLag, WALBytes = %d, %d after a bulk add, want 1, %d", db.IngestLag(), db.WALBytes(), db.store.Size()-8)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if db.IngestLag() != 0 || db.WALBytes() != 0 {
		t.Fatalf("IngestLag, WALBytes = %d, %d after Save", db.IngestLag(), db.WALBytes())
	}

	ids, err := db.IngestBatchCtx(context.Background(), docs[1:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("ids = %v, want [1 2]", ids)
	}
	if db.IngestLag() != 2 {
		t.Fatalf("IngestLag = %d after a 2-op batch, want 2", db.IngestLag())
	}
	if err := db.DeleteDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	// After streaming ingest, plain AddDocument joins the durable path.
	if _, err := db.AddDocumentString(docs[3]); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().IngestFsyncs - fsyncs; got != 3 {
		t.Errorf("%d fsyncs for three streaming commits and a bulk add before them, want 3", got)
	}
	snap := db.Metrics()
	if snap.IngestLag != 4 || snap.DocumentsDeleted != 1 || snap.WALBytes <= 0 {
		t.Fatalf("snapshot lag/deleted/bytes = %d/%d/%d, want 4/1/>0", snap.IngestLag, snap.DocumentsDeleted, snap.WALBytes)
	}

	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if db.IngestLag() != 0 || db.WALBytes() != 0 {
		t.Fatalf("IngestLag, WALBytes = %d, %d after Save, want 0", db.IngestLag(), db.WALBytes())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if n := f.Name(); n != "data.heap" && n != "labels.dict" {
			t.Errorf("the directory of an unindexed database holds %s", n)
		}
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if re.NumDocuments() != 4 || re.DeletedDocuments() != 1 {
		t.Fatalf("reopened: %d docs / %d deleted, want 4 / 1", re.NumDocuments(), re.DeletedDocuments())
	}
	if re.IngestLag() != 0 || re.WALBytes() != 0 {
		t.Fatalf("reopened IngestLag, WALBytes = %d, %d, want 0", re.IngestLag(), re.WALBytes())
	}
	mustExist(t, re, "//author[phone]", false) // docs[1] stayed deleted
	mustExist(t, re, "//author[address]", true)
}

func TestIngestReplayOnOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddDocumentString(docs[0]); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	// Acknowledged but never Saved: the log alone protects these.
	if _, err := db.IngestBatchCtx(context.Background(), docs[1:3]); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument(0); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics().IngestReplayed
	if err := db.Close(); err != nil { // crash stand-in: no Save
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := db.Metrics().IngestReplayed - before; got != 3 {
		t.Errorf("replayed counter grew by %d, want 3", got)
	}
	if re.NumDocuments() != 3 || re.DeletedDocuments() != 1 {
		t.Fatalf("replayed: %d docs / %d deleted, want 3 / 1", re.NumDocuments(), re.DeletedDocuments())
	}
	if re.IngestLag() != 0 {
		t.Fatalf("IngestLag = %d after replay, want 0 (Open absorbs the log)", re.IngestLag())
	}
	// The replay re-indexed incrementally: exact answers, no fallback.
	res, err := re.Query("//title")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 { // docs[1] and docs[2]; docs[0] deleted
		t.Errorf("count = %d, want 2", res.Count)
	}
	if res.ScanFallback {
		t.Error("replayed index fell back to scanning")
	}
	mustExist(t, re, "//author[phone]", true)

	// Open already absorbed the log into the base commit, so a second
	// reopen replays nothing.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re2.Close() }()
	if re2.NumDocuments() != 3 || re2.DeletedDocuments() != 1 || re2.IngestLag() != 0 {
		t.Fatalf("second reopen: %d docs / %d deleted / lag %d", re2.NumDocuments(), re2.DeletedDocuments(), re2.IngestLag())
	}
}

// ingestScript drives a fixed sequence of group commits and reports how
// far it got: the number of fully acknowledged steps.
//
//	step 1: batch insert <u0/>, <u1/>
//	step 2: delete the base document <base0/>
//	step 3: batch insert <u2/>
func ingestScript(db *DB) (ackedSteps int, err error) {
	if _, err = db.IngestBatchCtx(context.Background(), []string{"<u0/>", "<u1/>"}); err != nil {
		return 0, err
	}
	if err = db.DeleteDocument(0); err != nil {
		return 1, err
	}
	if _, err = db.IngestBatchCtx(context.Background(), []string{"<u2/>"}); err != nil {
		return 2, err
	}
	return 3, nil
}

// setupIngestBase creates a DB under dir with two base documents, saved:
// a bulk load is durable from its Save on.
func setupIngestBase(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"<base0/>", "<base1/>"} {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkIngestOutcome verifies the recovery oracle over a reopened DB:
// every acknowledged step is fully visible, every unattempted step fully
// absent. (An attempted-but-unacknowledged step may appear — the
// documented at-least-once window when a batch reached the disk but its
// fsync result was lost — so only the acknowledged floor and the
// attempted ceiling are asserted.)
func checkIngestOutcome(t *testing.T, db *DB, ackedSteps int, ctx string) {
	t.Helper()
	mustExist(t, db, "//base1", true)
	if ackedSteps >= 1 {
		mustExist(t, db, "//u0", true)
		mustExist(t, db, "//u1", true)
	}
	if ackedSteps >= 2 {
		mustExist(t, db, "//base0", false)
	}
	if ackedSteps >= 3 {
		mustExist(t, db, "//u2", true)
	}
	// Steps run strictly in order, so anything past the failed step was
	// never attempted and must not exist in any form.
	if ackedSteps < 2 {
		mustExist(t, db, "//u2", false)
	}
	if n := db.NumDocuments(); n < 2+2*min(ackedSteps, 1) || n > 5 {
		t.Errorf("%s: implausible document count %d for %d acked steps", ctx, n, ackedSteps)
	}
}

// TestIngestCrashSweep simulates a crash at every write operation of the
// streaming-ingest window — WAL creation, batch appends and fsyncs, heap
// applies — in plain and torn variants, then reopens the directory like
// a rebooted process and requires that no acknowledged operation is lost
// and nothing unattempted appears. It runs once over a script of separate
// commits on an index-less database, once over a mixed submission (adds,
// deletes, an add deleted by its own submission) on an indexed one, which
// must come back whole or not at all, and once over a window that changes
// more than 256 pages of a large index, which must come back healthy.
func TestIngestCrashSweep(t *testing.T) {
	t.Run("separate commits", func(t *testing.T) {
		sweepIngestCrashes(t, setupIngestBase, ingestScript, 3, checkIngestOutcome)
	})
	t.Run("mixed submission", func(t *testing.T) {
		sweepIngestCrashes(t, setupMixedBase, mixedScript, 1, checkMixedOutcome)
	})
	t.Run("wide window", func(t *testing.T) {
		sweepIngestCrashes(t, wideBase(t), wideScript, 2, checkWideOutcome)
	})
}

// wideDoc returns a document with 320 leaf elements of 320 labels: in an
// index of depth 1 each is an entry, and each lands in another part of the
// key space. mark names the one child no other document has.
func wideDoc(mark string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<w><%s/>", mark)
	for g := 0; g < 16; g++ {
		fmt.Fprintf(&b, "<g%d>", g)
		for l := 20 * g; l < 20*g+20; l++ {
			fmt.Fprintf(&b, "<l%d/>", l)
		}
		fmt.Fprintf(&b, "</g%d>", g)
	}
	return b.String() + "</w>"
}

// wideBase builds, once, a checkpointed database of 40 wide documents
// (base0..base39) under an index of 256-byte pages — some 250 of them,
// packed full, a leaf or so per label, so that wideScript's window changes
// every one and splits most: over 256 pages — and checks that wideScript's
// window is that wide. The setup it returns opens a copy.
func wideBase(t *testing.T) func(t *testing.T, dir string) *DB {
	t.Helper()
	base := t.TempDir()
	db, err := Create(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := db.AddDocumentString(wideDoc(fmt.Sprint("base", i))); err != nil {
			t.Fatal(err)
		}
	}
	// IndexOptions has no page size: the small pages that keep a wide
	// window cheap come through the internal options.
	ix, err := core.Build(db.store, core.Options{DepthLimit: 1, PageSize: 256, Dir: base})
	if err != nil {
		t.Fatal(err)
	}
	db.index = ix
	db.publish()
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	setup := func(t *testing.T, dir string) *DB {
		t.Helper()
		copyFiles(t, base, dir)
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.IndexHealth(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db = setup(t, t.TempDir())
	defer db.Close()
	before := db.Metrics().BTree.PageWrites
	if acked, err := wideScript(db); err != nil || acked != 2 {
		t.Fatalf("fixture: acked %d steps, err %v", acked, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := db.Metrics().BTree.PageWrites - before; n <= 256 {
		t.Fatalf("fixture: the window changed %d pages, want more than 256", n)
	}
	return setup
}

// wideScript commits two submissions: add <w><u0/>…</w>; then delete
// base0 and add <w><u1/>…</w>.
func wideScript(db *DB) (ackedSteps int, err error) {
	ing := db.NewIngester(IngestConfig{})
	defer func() { _ = ing.Close() }()
	for step, del := range []bool{false, true} {
		add, err := db.AddOp(wideDoc(fmt.Sprint("u", step)))
		if err != nil {
			return step, err
		}
		ops := []Op{add}
		if del {
			ops = append(ops, DeleteOp(0))
		}
		if _, err := ing.Apply(context.Background(), ops); err != nil {
			return step, err
		}
	}
	return 2, nil
}

// checkWideOutcome: the index is healthy and sound, every acknowledged
// submission is there, nothing unattempted is, and the index agrees with a
// scan.
func checkWideOutcome(t *testing.T, db *DB, ackedSteps int, ctx string) {
	t.Helper()
	if err := db.IndexHealth(); err != nil {
		t.Fatalf("%s: index degraded: %v", ctx, err)
	}
	if err := db.VerifyIndex(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	mustExist(t, db, "//base1", true)
	if ackedSteps >= 1 {
		mustExist(t, db, "//u0", true)
	}
	if ackedSteps >= 2 {
		mustExist(t, db, "//u1", true)
		mustExist(t, db, "//base0", false)
	}
	if ackedSteps < 1 {
		mustExist(t, db, "//u1", false)
	}
	// Within the index's depth, so that the index answers them.
	for _, expr := range []string{"//l7", "//l319", "//g3", "//w"} {
		res, err := db.Query(expr)
		if err != nil {
			t.Fatalf("%s: %s: %v", ctx, expr, err)
		}
		scan, err := db.Query(expr, ScanOnly())
		if err != nil {
			t.Fatalf("%s: %s: %v", ctx, expr, err)
		}
		if res.ScanFallback || res.Count != scan.Count || res.Count < 17+ackedSteps {
			t.Errorf("%s: %s counts %d by index (fallback: %v), %d by scan, with %d acknowledged submissions", ctx, expr, res.Count, res.ScanFallback, scan.Count, ackedSteps)
		}
	}
}

// sweepIngestCrashes is the sweep: a dry run of script sizes the window,
// then every write of it fails once, plain and torn, and check judges the
// reopened database by how many steps script had seen acknowledged.
func sweepIngestCrashes(t *testing.T, setup func(*testing.T, string) *DB, script func(*DB) (int, error), steps int,
	check func(t *testing.T, db *DB, ackedSteps int, ctx string)) {
	// Dry run: learn the deterministic write-op count of the window.
	dry := &storage.FaultPlan{}
	restore := useFS(t, dry.WrapFS(storage.Disk))
	dir := t.TempDir()
	db := setup(t, dir)
	w1 := dry.Writes()
	if acked, err := script(db); err != nil || acked != steps {
		t.Fatalf("dry run: acked %d steps, err %v", acked, err)
	}
	w2 := dry.Writes()
	restore()
	check(t, db, steps, "dry run, live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if w2 <= w1 {
		t.Fatalf("ingest window did no writes (%d..%d)", w1, w2)
	}
	// No Save came before the Close: this reopen replays the whole window.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(t, re, steps, "dry run, replayed")
	_ = re.Close()

	for n := w1 + 1; n <= w2; n++ {
		for _, torn := range []bool{false, true} {
			pl := &storage.FaultPlan{FailWrite: n, Torn: torn}
			restore := useFS(t, pl.WrapFS(storage.Disk))
			dir := t.TempDir()
			db := setup(t, dir)
			acked, err := script(db)
			if err == nil {
				t.Fatalf("write %d (torn=%t): expected an injected failure", n, torn)
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("write %d (torn=%t): unexpected error: %v", n, torn, err)
			}
			_ = db.Close()
			restore() // "reboot": recovery sees the real files

			re, err := Open(dir)
			if err != nil {
				t.Fatalf("write %d (torn=%t): reopen: %v", n, torn, err)
			}
			ctx := fmt.Sprintf("write %d (torn=%t)", n, torn)
			check(t, re, acked, ctx)

			// The reopened DB is fully usable: Save checkpoints it and a
			// further reopen is stable.
			if err := re.Save(); err != nil {
				t.Fatalf("%s: save after recovery: %v", ctx, err)
			}
			if re.IngestLag() != 0 {
				t.Errorf("%s: IngestLag = %d after Save", ctx, re.IngestLag())
			}
			if err := re.Close(); err != nil {
				t.Fatalf("%s: close: %v", ctx, err)
			}
			re2, err := Open(dir)
			if err != nil {
				t.Fatalf("%s: second reopen: %v", ctx, err)
			}
			check(t, re2, acked, ctx+" (saved)")
			_ = re2.Close()
		}
	}
}

// setupMixedBase is setupIngestBase plus a committed index, so recovery
// has to bring the index along.
func setupMixedBase(t *testing.T, dir string) *DB {
	t.Helper()
	db := setupIngestBase(t, dir)
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	return db
}

// mixedScript commits one submission through an Ingester: add <m0/>,
// delete <base0/>, add <m1/>, delete that <m1/> (record 3 by then), add
// <m2/>. It is one step: acknowledged or not.
func mixedScript(db *DB) (ackedSteps int, err error) {
	ing := db.NewIngester(IngestConfig{})
	defer func() { _ = ing.Close() }()
	ops := make([]Op, 5)
	for i, doc := range map[int]string{0: "<m0/>", 2: "<m1/>", 4: "<m2/>"} {
		if ops[i], err = db.AddOp(doc); err != nil {
			return 0, err
		}
	}
	ops[1], ops[3] = DeleteOp(0), DeleteOp(3)
	if _, err = ing.Apply(context.Background(), ops); err != nil {
		return 0, err
	}
	return 1, nil
}

// checkMixedOutcome: the submission is there whole — as it must be once
// acknowledged — or not at all, and the index agrees with a scan of the
// heap either way.
func checkMixedOutcome(t *testing.T, db *DB, ackedSteps int, ctx string) {
	t.Helper()
	whole := db.NumDocuments() == 5
	if (ackedSteps == 1 && !whole) || (!whole && db.NumDocuments() != 2) {
		t.Fatalf("%s: %d documents for %d acknowledged submissions", ctx, db.NumDocuments(), ackedSteps)
	}
	if want := map[bool]int{true: 2, false: 0}[whole]; db.DeletedDocuments() != want {
		t.Errorf("%s: %d deleted documents, want %d", ctx, db.DeletedDocuments(), want)
	}
	if err := db.IndexHealth(); err != nil {
		t.Errorf("%s: index degraded: %v", ctx, err)
	}
	for expr, want := range map[string]bool{"//base1": true, "//base0": !whole, "//m0": whole, "//m1": false, "//m2": whole} {
		for _, opts := range [][]QueryOption{nil, {ScanOnly()}} {
			res, err := db.Query(expr, opts...)
			if err != nil {
				t.Fatalf("%s: %s: %v", ctx, expr, err)
			}
			if (res.Count == 1) != want || res.Count > 1 {
				t.Errorf("%s: %s (scan only: %v) counts %d, want present: %v", ctx, expr, opts != nil, res.Count, want)
			}
		}
	}
}

// TestIngestBatchRollbackTransient injects one transient write fault at
// every point of a batch commit and requires all-or-nothing semantics on
// the live DB: either the batch was acknowledged and is fully visible,
// or it failed and nothing of it is visible — and in both cases the DB
// keeps accepting ingest afterwards (the disk recovered).
func TestIngestBatchRollbackTransient(t *testing.T) {
	dry := &storage.FaultPlan{}
	restore := useFS(t, dry.WrapFS(storage.Disk))
	dir := t.TempDir()
	db := setupIngestBase(t, dir)
	w1 := dry.Writes()
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<u0/>", "<u1/>"}); err != nil {
		t.Fatal(err)
	}
	w2 := dry.Writes()
	restore()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for n := w1 + 1; n <= w2; n++ {
		pl := &storage.FaultPlan{FailWrite: n, OneShot: true}
		restore := useFS(t, pl.WrapFS(storage.Disk))
		dir := t.TempDir()
		db := setupIngestBase(t, dir)
		_, err := db.IngestBatchCtx(context.Background(), []string{"<u0/>", "<u1/>"})
		if err == nil {
			// The fault landed on a write the commit can tolerate
			// (none currently; guard against future protocol changes).
			mustExist(t, db, "//u0", true)
			mustExist(t, db, "//u1", true)
		} else {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("write %d: unexpected error: %v", n, err)
			}
			mustExist(t, db, "//u0", false)
			mustExist(t, db, "//u1", false)
			if db.NumDocuments() != 2 {
				t.Fatalf("write %d: rolled-back batch left %d documents", n, db.NumDocuments())
			}
		}
		// The transient fault has passed: ingest must work again.
		if _, err := db.IngestBatchCtx(context.Background(), []string{"<u2/>"}); err != nil {
			t.Fatalf("write %d: ingest after recovery: %v", n, err)
		}
		mustExist(t, db, "//u2", true)
		_ = db.Close()
		restore()

		re, err := Open(dir)
		if err != nil {
			t.Fatalf("write %d: reopen: %v", n, err)
		}
		mustExist(t, re, "//u2", true)
		if err2 := re.Close(); err2 != nil {
			t.Fatal(err2)
		}
	}
}

// TestConcurrentIngestAndQuery runs writers (inserts and deletes through
// one Ingester) against readers (queries, Exists, snapshots) and checks
// the final state is exact. Run under -race, this is the data-race proof
// for the ingest/query lock protocol.
func TestConcurrentIngestAndQuery(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	ing := db.NewIngester(IngestConfig{})
	ctx := context.Background()

	const writers = 4
	const perWriter = 24
	var wg sync.WaitGroup
	var deleted atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				doc := fmt.Sprintf(`<article><title>w%d-%d</title><author><email>e</email></author></article>`, w, i)
				rec, err := ing.Add(ctx, doc)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%4 == 3 {
					if err := ing.Delete(ctx, rec); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
						return
					}
					deleted.Add(1)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query("//article[author]/title"); err != nil {
					t.Errorf("reader query: %v", err)
					return
				}
				if _, err := db.Exists("//author[email]"); err != nil {
					t.Errorf("reader exists: %v", err)
					return
				}
				_ = db.Metrics()
				_ = db.IngestLag()
				_ = ing.QueueLen()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	wantDocs := len(docs) + writers*perWriter
	if db.NumDocuments() != wantDocs {
		t.Fatalf("NumDocuments = %d, want %d", db.NumDocuments(), wantDocs)
	}
	if int64(db.DeletedDocuments()) != deleted.Load() {
		t.Fatalf("DeletedDocuments = %d, want %d", db.DeletedDocuments(), deleted.Load())
	}
	// Indexed and scan-only answers agree exactly on the final state.
	idx, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := db.Query("//article[author]/title", ScanOnly())
	if err != nil {
		t.Fatal(err)
	}
	if idx.ScanFallback {
		t.Error("index degraded during concurrent ingest")
	}
	if idx.Count != scan.Count {
		t.Fatalf("indexed count %d != scan count %d", idx.Count, scan.Count)
	}
	want := 2 + writers*perWriter - int(deleted.Load()) // base docs 0 and 1 match too
	if idx.Count != want {
		t.Fatalf("count = %d, want %d", idx.Count, want)
	}
}

// TestIngestReplayHonorsLooseParseLimits: a document admitted under
// custom limits looser than the parser defaults must come back on Open,
// which cannot know the original limits (they are not persisted): the
// heap holds it encoded, and Open parses nothing.
func TestIngestReplayHonorsLooseParseLimits(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetOptions(Options{ParseLimits: ParseLimits{MaxDepth: -1}})
	const depth = 600 // over the default MaxDepth of 512
	deep := strings.Repeat("<a>", depth) + "x" + strings.Repeat("</a>", depth)
	if _, err := db.IngestBatchCtx(context.Background(), []string{deep}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // no Save: the log still guards the doc
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open failed to replay a document ingested under loose limits: %v", err)
	}
	defer re.Close()
	if re.NumDocuments() != 1 {
		t.Fatalf("NumDocuments = %d, want 1", re.NumDocuments())
	}
	if _, err := re.Document(0); err != nil {
		t.Fatalf("replayed document unreadable: %v", err)
	}
}

// TestBadDeleteDoesNotFailBatch: an out-of-range delete must be
// rejected individually — group commit coalesces unrelated callers, so
// it must not take their valid submissions down with it.
func TestBadDeleteDoesNotFailBatch(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	add, err := db.AddOp("<a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	ins := &submission{ops: []Op{add}}
	bad := &submission{ops: []Op{DeleteOp(99)}}
	if err := db.commitPending(context.Background(), []*submission{ins, bad}); err != nil {
		t.Fatalf("batch with one bad delete failed wholesale: %v", err)
	}
	if !errors.Is(bad.err, ErrUnknownDocument) {
		t.Fatalf("bad delete err = %v, want ErrUnknownDocument", bad.err)
	}
	if ins.err != nil || len(ins.recs) != 1 || ins.recs[0] != 0 {
		t.Fatalf("insert sharing the batch: recs %v, err %v; want [0], nil", ins.recs, ins.err)
	}
	if db.NumDocuments() != 1 {
		t.Fatalf("NumDocuments = %d, want 1 (insert sharing the batch must commit)", db.NumDocuments())
	}
	mustExist(t, db, "//b", true)
}

// walStall lets a test hold one group commit inside its WAL fsync, which
// is what makes coalescing certain instead of likely: whatever is
// submitted while the committer sits there is queued when it comes back,
// and its non-blocking drain takes all of it into the next batch.
type walStall struct {
	armed   atomic.Bool
	entered chan struct{} // receives when the armed fsync has begun
	release chan struct{} // closed by the test to let it finish
}

type stalledFile struct {
	storage.File
	ws *walStall
}

func (f stalledFile) Sync() error {
	if f.ws.armed.CompareAndSwap(true, false) {
		f.ws.entered <- struct{}{}
		<-f.ws.release
	}
	return f.File.Sync()
}

// newStalledDB creates a persistent DB whose heap goes through a
// walStall, with an ingester that has already committed once (so the
// next fsync of the heap is a batch's).
func newStalledDB(t *testing.T) (*DB, *Ingester, *walStall) {
	t.Helper()
	ws := &walStall{entered: make(chan struct{}, 1), release: make(chan struct{})}
	useFS(t, storage.WrapFiles(storage.Disk, func(path string, f storage.File) storage.File {
		if filepath.Base(path) != "data.heap" {
			return f
		}
		return stalledFile{f, ws}
	}))
	db, err := Create(filepath.Join(t.TempDir(), "db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	ing := db.NewIngester(IngestConfig{})
	t.Cleanup(func() { _ = ing.Close() })
	if _, err := ing.Add(context.Background(), "<warm/>"); err != nil {
		t.Fatal(err)
	}
	return db, ing, ws
}

// stallFirst arms the stall, submits one add and returns once its group
// commit — that add alone — is inside its fsync; wait collects the add's
// outcome after the release.
func (ws *walStall) stallFirst(t *testing.T, ing *Ingester) (wait func()) {
	t.Helper()
	ws.armed.Store(true)
	first := make(chan error, 1)
	go func() {
		_, err := ing.Add(context.Background(), "<first/>")
		first <- err
	}()
	<-ws.entered
	return func() {
		t.Helper()
		if err := <-first; err != nil {
			t.Fatalf("the stalled add: %v", err)
		}
	}
}

// waitQueued returns once n submissions sit in the ingester's queue.
func waitQueued(t *testing.T, ing *Ingester, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ing.QueueLen() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d submissions queued, want %d", ing.QueueLen(), n)
		}
	}
}

// TestIngesterBadDeleteDoesNotFailConcurrentAdds drives the same
// guarantee through the shared-ingester path a server exposes: one
// client's bad delete, coalesced with other clients' adds into one group
// commit, fails only its own acknowledgment.
func TestIngesterBadDeleteDoesNotFailConcurrentAdds(t *testing.T) {
	db, ing, ws := newStalledDB(t)
	ctx := context.Background()
	before := db.Metrics() // not while a commit is stalled: it takes the ingest lock
	waitFirst := ws.stallFirst(t, ing)

	const adds = 8
	var wg sync.WaitGroup
	var delErr error
	addErrs := make([]error, adds)
	wg.Add(1)
	go func() {
		defer wg.Done()
		delErr = ing.Delete(ctx, 1<<30)
	}()
	for i := 0; i < adds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, addErrs[i] = ing.Add(ctx, "<a><b/></a>")
		}(i)
	}
	waitQueued(t, ing, adds+1)
	close(ws.release)
	waitFirst()
	wg.Wait()
	if !errors.Is(delErr, ErrUnknownDocument) {
		t.Fatalf("bad delete = %v, want ErrUnknownDocument", delErr)
	}
	for i, err := range addErrs {
		if err != nil {
			t.Fatalf("add %d sharing the ingester failed: %v", i, err)
		}
	}
	if db.NumDocuments() != 2+adds {
		t.Fatalf("NumDocuments = %d, want %d", db.NumDocuments(), 2+adds)
	}
	// The stalled add's batch and the one that held everybody else.
	if got := db.Metrics().IngestBatches - before.IngestBatches; got != 2 {
		t.Fatalf("%d group commits, want 2 (the bad delete was not coalesced with the adds)", got)
	}
}

// TestGroupCommitWithoutTimer: group commit clocks itself. With the first
// commit held in its fsync, N writers queue up behind it; once it is let
// go they are one batch and one fsync — and nobody waited for a timer:
// the committer took what was queued and went.
func TestGroupCommitWithoutTimer(t *testing.T) {
	db, ing, ws := newStalledDB(t)
	ctx := context.Background()
	before := db.Metrics()
	waitFirst := ws.stallFirst(t, ing)

	const writers = 12
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ing.Add(ctx, fmt.Sprintf("<w><n>%d</n></w>", i))
		}(i)
	}
	waitQueued(t, ing, writers)
	close(ws.release)
	waitFirst()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	after := db.Metrics()
	if b, f, d := after.IngestBatches-before.IngestBatches, after.IngestFsyncs-before.IngestFsyncs, after.IngestDocs-before.IngestDocs; b != 2 || f != 2 || d != 1+writers {
		t.Fatalf("%d batches, %d fsyncs, %d documents; want 2, 2, %d", b, f, d, 1+writers)
	}
	// A lone writer afterwards is a batch of its own, at once.
	if _, err := ing.Add(ctx, "<lone/>"); err != nil {
		t.Fatal(err)
	}
	if b := db.Metrics().IngestBatches - after.IngestBatches; b != 1 {
		t.Fatalf("a lone add made %d batches, want 1", b)
	}
}

// TestApplyMixedSubmission: a submission is an ordered, mixed list. Its
// records come back per operation, a delete may name a document the same
// submission added, which is then never visible, and all of it is one
// group commit and one publish.
func TestApplyMixedSubmission(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	ing := db.NewIngester(IngestConfig{})
	defer func() { _ = ing.Close() }()
	n := uint32(len(docs))
	var ops []Op
	for _, doc := range []string{
		`<note><title>kept</title></note>`,
		`<memo><title>dropped</title></memo>`,
		`<note><title>kept too</title></note>`,
	} {
		op, err := db.AddOp(doc)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	// add note, delete docs[1], add memo, delete that memo, add note
	ops = []Op{ops[0], DeleteOp(1), ops[1], DeleteOp(n + 1), ops[2]}
	before, gen := db.Metrics(), db.GenerationID()
	recs, err := ing.Apply(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{n, 1, n + 1, n + 1, n + 2}; fmt.Sprint(recs) != fmt.Sprint(want) {
		t.Fatalf("recs = %v, want %v", recs, want)
	}
	after := db.Metrics()
	if b, d, x := after.IngestBatches-before.IngestBatches, after.IngestDocs-before.IngestDocs, after.IngestDeletes-before.IngestDeletes; b != 1 || d != 3 || x != 2 {
		t.Fatalf("%d batches, %d documents, %d deletes; want 1, 3, 2", b, d, x)
	}
	if got := db.GenerationID() - gen; got != 1 {
		t.Fatalf("the submission published %d generations, want 1", got)
	}
	if db.NumDocuments() != int(n)+3 || db.DeletedDocuments() != 2 {
		t.Fatalf("%d documents / %d deleted, want %d / 2", db.NumDocuments(), db.DeletedDocuments(), n+3)
	}
	// One entry per document: the memo was stored and tombstoned, never indexed.
	if got, want := db.IndexEntries(), len(docs)-1+2; got != want {
		t.Fatalf("index holds %d entries, want %d", got, want)
	}
	for expr, want := range map[string]int{"//note/title": 2, "//memo": 0, "//author[phone]": 0, "//title": 5} {
		for _, opts := range [][]QueryOption{nil, {ScanOnly()}} {
			res, err := db.Query(expr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want || (opts == nil && res.ScanFallback) {
				t.Errorf("%s (scan only: %v): count %d, fallback %v; want %d from the index", expr, opts != nil, res.Count, res.ScanFallback, want)
			}
		}
	}
	if empty, err := ing.Apply(context.Background(), nil); err != nil || empty != nil {
		t.Fatalf("empty submission = %v, %v", empty, err)
	}
}

// TestSubmissionAllOrNothing: a delete of a record nobody has assigned,
// in the middle of a submission, rejects the submission whole — nothing
// of it is numbered, logged or visible — while another caller's
// submission in the same group commit goes through.
func TestSubmissionAllOrNothing(t *testing.T) {
	db, ing, ws := newStalledDB(t)
	ctx := context.Background()
	lag := db.IngestLag()
	waitFirst := ws.stallFirst(t, ing)

	var bad []Op
	for _, doc := range []string{"<x/>", "<y/>"} {
		op, err := db.AddOp(doc)
		if err != nil {
			t.Fatal(err)
		}
		bad = append(bad, op)
	}
	// Its own first add is record 2 by then; record 4 is nobody's.
	bad = []Op{bad[0], DeleteOp(2), DeleteOp(4), bad[1]}
	var wg sync.WaitGroup
	var badErr, goodErr error
	var goodRec uint32
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, badErr = ing.Apply(ctx, bad)
	}()
	waitQueued(t, ing, 1) // the bad submission goes first
	go func() {
		defer wg.Done()
		goodRec, goodErr = ing.Add(ctx, "<good/>")
	}()
	waitQueued(t, ing, 2)
	close(ws.release)
	waitFirst()
	wg.Wait()

	if !errors.Is(badErr, ErrUnknownDocument) {
		t.Fatalf("submission with a bad delete = %v, want ErrUnknownDocument", badErr)
	}
	// warm-up is record 0, the stalled add 1: the good add is numbered as
	// if the rejected submission had never been there.
	if goodErr != nil || goodRec != 2 {
		t.Fatalf("the other caller's add = record %d, %v; want 2, nil", goodRec, goodErr)
	}
	if got := db.IngestLag() - lag; got != 2 { // the stalled add and the good one
		t.Fatalf("the WAL grew by %d operations, want 2", got)
	}
	if db.NumDocuments() != 3 || db.DeletedDocuments() != 0 {
		t.Fatalf("%d documents / %d deleted, want 3 / 0", db.NumDocuments(), db.DeletedDocuments())
	}
	mustExist(t, db, "//x", false)
	mustExist(t, db, "//y", false)
	mustExist(t, db, "//good", true)

	// Direct commits hold to the same rule.
	if err := db.DeleteDocument(3); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("DeleteDocument of an unassigned record = %v", err)
	}
	// The zero Op is not a delete of record 0: it is nothing, and rejected.
	if _, err := ing.Apply(ctx, []Op{DeleteOp(0), {}}); err == nil || db.DeletedDocuments() != 0 {
		t.Fatalf("submission holding a zero Op = %v, %d documents deleted; want an error and none", err, db.DeletedDocuments())
	}
	// And so does recovery: the log holds nothing of the rejected submission.
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	dir := db.dir
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if re.NumDocuments() != 3 || re.DeletedDocuments() != 0 {
		t.Fatalf("reopened: %d documents / %d deleted, want 3 / 0", re.NumDocuments(), re.DeletedDocuments())
	}
	mustExist(t, re, "//x", false)
	mustExist(t, re, "//good", true)
}

// TestPublishSharesUnchangedTombstones: a commit that sets or clears no
// tombstone publishes the previous generation's tombstone set itself, not
// a copy; a delete publishes a new one, and a View pinned before it keeps
// reading its own.
func TestPublishSharesUnchangedTombstones(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	if err := db.DeleteDocument(2); err != nil {
		t.Fatal(err)
	}
	tombs := db.gen.Load().Tombs()
	if _, err := db.IngestBatchCtx(context.Background(), []string{"<a/>", "<b/>"}); err != nil {
		t.Fatal(err)
	}
	if db.gen.Load().Tombs() != tombs {
		t.Fatal("an add-only commit published a new tombstone set")
	}
	pinned := db.View()
	defer func() { _ = pinned.Close() }()
	if err := db.DeleteDocument(1); err != nil {
		t.Fatal(err)
	}
	if now := db.gen.Load().Tombs(); now == tombs || !now.Has(1) || !now.Has(2) || now.Len() != 2 {
		t.Fatalf("after a delete: same set %v, Has(1) %v, Has(2) %v, Len %d", now == tombs, now.Has(1), now.Has(2), now.Len())
	}
	if tombs.Has(1) || tombs.Len() != 1 {
		t.Fatal("the delete changed the set an older generation holds")
	}
	if ok, err := pinned.Exists("//author[phone]"); err != nil || !ok {
		t.Fatalf("pinned View lost the document deleted after it: %v, %v", ok, err)
	}
	mustExist(t, db, "//author[phone]", false)
}

// TestReplayPerOperationCommitsMatchOneSubmission: the log format did not
// change with the unit of commit. A log written the way a request used
// to be — one batch of adds, then one batch per delete — and a log
// holding the same operations as one submission's single batch replay to
// the same database.
func TestReplayPerOperationCommitsMatchOneSubmission(t *testing.T) {
	adds := []string{
		`<article><title>n0</title><author><email>e</email></author></article>`,
		`<book><title>n1</title></book>`,
		`<article><title>n2</title><author><phone>p</phone></author></article>`,
		`<note><title>n3</title></note>`,
	}
	n := uint32(len(docs))
	deletes := []uint32{0, n + 1, 2, n + 3} // two old documents, two of the new ones
	type state struct {
		docs, deleted, entries int
		texts                  []string
		counts                 map[string]int
	}
	replayed := func(write func(t *testing.T, db *DB)) state {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if _, err := db.AddDocumentString(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.BuildIndex(IndexOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := db.Save(); err != nil {
			t.Fatal(err)
		}
		write(t, db)
		if err := db.Close(); err != nil { // no Save: the log alone holds the writes
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = re.Close() }()
		st := state{docs: re.NumDocuments(), deleted: re.DeletedDocuments(), entries: re.IndexEntries(), counts: map[string]int{}}
		for rec := 0; rec < st.docs; rec++ {
			text, err := re.Document(uint32(rec))
			if err != nil {
				t.Fatal(err)
			}
			st.texts = append(st.texts, text)
		}
		for _, expr := range []string{"//title", "//article[author]/title", "//book", "//note", "//author[phone]"} {
			res, err := re.Query(expr)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := re.Query(expr, ScanOnly())
			if err != nil {
				t.Fatal(err)
			}
			if res.ScanFallback || res.Count != scan.Count {
				t.Fatalf("%s after replay: index %d (fallback %v), scan %d", expr, res.Count, res.ScanFallback, scan.Count)
			}
			st.counts[expr] = res.Count
		}
		return st
	}
	perOp := replayed(func(t *testing.T, db *DB) {
		if _, err := db.IngestBatchCtx(context.Background(), adds); err != nil {
			t.Fatal(err)
		}
		for _, rec := range deletes {
			if err := db.DeleteDocument(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	one := replayed(func(t *testing.T, db *DB) {
		ing := db.NewIngester(IngestConfig{})
		defer func() { _ = ing.Close() }()
		var ops []Op
		for _, doc := range adds {
			op, err := db.AddOp(doc)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, op)
		}
		for _, rec := range deletes {
			ops = append(ops, DeleteOp(rec))
		}
		before := db.Metrics().IngestBatches
		if _, err := ing.Apply(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		if got := db.Metrics().IngestBatches - before; got != 1 {
			t.Fatalf("the submission took %d group commits, want 1", got)
		}
	})
	if fmt.Sprint(perOp) != fmt.Sprint(one) {
		t.Fatalf("replay of five batches:\n%+v\nreplay of one batch:\n%+v", perOp, one)
	}
	if one.docs != len(docs)+len(adds) || one.deleted != len(deletes) || one.entries != one.docs-one.deleted {
		t.Fatalf("replayed state: %+v", one)
	}
}
