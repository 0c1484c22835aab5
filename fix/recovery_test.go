package fix

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// buildPersistentDB creates an on-disk database with an index and returns
// its directory plus the reference answer for the probe query.
func buildPersistentDB(t *testing.T) (string, Result) {
	t.Helper()
	dbdir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dbdir)
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
	want, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dbdir, want
}

func corruptBtreePages(t *testing.T, dbdir string) {
	t.Helper()
	path := filepath.Join(dbdir, "fix.btree")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	for off := pageSize + 100; off < len(buf); off += pageSize {
		buf[off] ^= 0xFF
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptIndexScanFallbackAndRebuild(t *testing.T) {
	dbdir, want := buildPersistentDB(t)
	corruptBtreePages(t, dbdir)

	db, err := Open(dbdir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count {
		t.Errorf("degraded query count = %d, want %d", got.Count, want.Count)
	}
	if !got.ScanFallback {
		t.Error("query over a corrupt index did not report the scan fallback")
	}
	if err := db.IndexHealth(); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("IndexHealth = %v, want ErrCorrupt", err)
	}
	if err := db.VerifyIndex(); err == nil {
		t.Error("VerifyIndex passed on a corrupt index")
	}
	// QueryDocuments must also survive via the scan path.
	ids, err := db.QueryDocuments("//author[email]")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("degraded QueryDocuments = %v, want [0 1]", ids)
	}

	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := db.IndexHealth(); err != nil {
		t.Fatalf("IndexHealth after rebuild: %v", err)
	}
	if err := db.VerifyIndex(); err != nil {
		t.Fatalf("VerifyIndex after rebuild: %v", err)
	}
	got, err = db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	if got.ScanFallback {
		t.Error("rebuilt index still on the scan fallback")
	}
	if got.Count != want.Count {
		t.Errorf("rebuilt query count = %d, want %d", got.Count, want.Count)
	}

	// The rebuild must also be durable.
	db.Close()
	re, err := Open(dbdir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.VerifyIndex(); err != nil {
		t.Fatalf("VerifyIndex after reopen: %v", err)
	}
}

func TestVerifyIndexHealthy(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	if err := db.IndexHealth(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyIndexWithoutIndex(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.IndexHealth(); err != nil {
		t.Fatalf("IndexHealth with no index = %v, want nil", err)
	}
	if err := db.VerifyIndex(); err == nil {
		t.Error("VerifyIndex with no index succeeded")
	}
}

// TestLeftoverJournalReplayedOnOpen plants a stale journal by hand and
// checks Open replays or discards it transparently.
func TestLeftoverJournalReplayedOnOpen(t *testing.T) {
	dbdir, want := buildPersistentDB(t)

	// An invalid (truncated) journal must be discarded, not replayed.
	jpath := filepath.Join(dbdir, "fix.journal")
	if err := os.WriteFile(jpath, []byte("FIXJNL01 truncated mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dbdir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := os.Stat(jpath); !os.IsNotExist(err) {
		t.Error("invalid journal survived Open")
	}
	if err := db.IndexHealth(); err != nil {
		t.Fatalf("IndexHealth after discarding journal: %v", err)
	}
	got, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("query after journal discard = %+v, want %+v", got, want)
	}
}

// TestCloseReopenLargeIndex is the clean stop of a served index of
// ordinary pages: 1200 wide documents under a depth-1 index of some 330
// four-kilobyte pages, then two acknowledged submissions that change over
// 256 of them — documents wideDoc spreads over the whole key space — no
// checkpoint, Close, Open. Close closes the index's files and commits
// nothing; Open catches the index the last checkpoint committed, whole,
// up to the heap's batches, so the index comes back healthy and sound,
// with every acknowledged document, and agrees with a scan.
func TestCloseReopenLargeIndex(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if _, err := db.AddDocumentString(wideDoc(fmt.Sprint("base", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{DepthLimit: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if acked, err := wideScript(db); err != nil || acked != 2 {
		t.Fatalf("acked %d submissions, err %v", acked, err)
	}
	bt := db.index.BTree()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.ScrubDisk(1, nil); !errors.Is(err, os.ErrClosed) {
		t.Errorf("reading fix.btree after DB.Close = %v, want os.ErrClosed: Close leaves the file open", err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkWideOutcome(t, re, 2, "reopened")
	if got := re.NumDocuments(); got != 1202 || re.DeletedDocuments() != 1 {
		t.Errorf("%d documents, %d deleted; want 1202 and 1", got, re.DeletedDocuments())
	}
	if n := re.Metrics().BTree.PageWrites; n <= 256 {
		t.Errorf("fixture: the recovery checkpoint wrote %d pages, want the window's more than 256", n)
	}
}

// TestOpenDropsTornAppend reopens a saved database whose heap ends in the
// length prefix of a record a crash cut short — an AddDocument that was
// never acknowledged, since no trailer seals it. The torn record is gone:
// with an index, the index still covers the heap, the next document lands
// where the torn one began, and after another reopen every document reads
// back; without an index, the trailers alone say what was saved.
func TestOpenDropsTornAppend(t *testing.T) {
	t.Run("with an index", func(t *testing.T) { openDropsTornAppend(t, true) })
	t.Run("torn tail without an index", func(t *testing.T) { openDropsTornAppend(t, false) })
}

func openDropsTornAppend(t *testing.T, indexed bool) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, d := range docs {
		id, err := db.AddDocumentString(d)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := db.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, doc)
	}
	if indexed {
		if err := db.BuildIndex(IndexOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	heap, err := os.OpenFile(filepath.Join(dir, "data.heap"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heap.Write([]byte{0, 0, 0, 100}); err != nil {
		t.Fatal(err)
	}
	if err := heap.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.NumDocuments(); n != len(docs) {
		t.Fatalf("reopened with %d documents, want %d", n, len(docs))
	}
	if err := db.IndexHealth(); err != nil {
		t.Errorf("IndexHealth after dropping the torn record: %v", err)
	}
	id, err := db.AddDocumentString(`<article><title>e</title><author/></article>`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.Document(id)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, doc)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.NumDocuments(); n != len(want) {
		t.Fatalf("%d documents after the add, want %d", n, len(want))
	}
	for id, w := range want {
		if got, err := db.Document(uint32(id)); err != nil || got != w {
			t.Errorf("Document(%d) = %q, %v; want %q", id, got, err, w)
		}
	}
	if res, err := db.Query("//article[author]/title"); err != nil || res.Count != 3 {
		t.Errorf("query after reopen = %+v, %v; want count 3", res, err)
	}
}

// TestOpenKeepsCorruptHeap reopens saved databases whose heap is damaged
// past the last trailer Open can trust, in a way a crash cannot leave: a
// corrupt length prefix in a batch the index covers; the same without an
// index, where nothing but the trailer that still ends the file says the
// batch was sealed; a corrupt length prefix in the first of two batches
// acknowledged after the last checkpoint; and a last trailer that fails
// its CRC. Each may hide acknowledged documents, so Open fails with
// ErrCorrupt and data.heap keeps every byte.
func TestOpenKeepsCorruptHeap(t *testing.T) {
	// corruptPrefix makes the length prefix at off point past the end of
	// the file.
	corruptPrefix := func(t *testing.T, heap string, off int64) {
		f, err := os.OpenFile(heap, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{0x40}, off); err != nil {
			t.Fatal(err)
		}
	}
	// record1 corrupts the length prefix of record 1.
	record1 := func(t *testing.T, heap string, _ int64) {
		b, err := os.ReadFile(heap)
		if err != nil {
			t.Fatal(err)
		}
		corruptPrefix(t, heap, 8+4+int64(binary.BigEndian.Uint32(b[8:])))
	}
	for _, tc := range []struct {
		name    string
		indexed bool
		after   int // group commits acknowledged after the checkpoint
		damage  func(t *testing.T, heap string, saved int64)
	}{
		{"corrupt prefix of record 1", true, 0, record1},
		{"corrupt prefix of record 1 without an index", false, 0, record1},
		{"corrupt prefix in a batch after the checkpoint", true, 2, corruptPrefix},
		{"last trailer fails its CRC without an index", false, 0, func(t *testing.T, heap string, saved int64) {
			flipByte(t, heap, saved-1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			if tc.indexed {
				if err := db.BuildIndex(IndexOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Save(); err != nil {
				t.Fatal(err)
			}
			saved := db.store.Size()
			for i := 0; i < tc.after; i++ {
				if _, err := db.IngestBatchCtx(context.Background(), docs[:2]); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			heap := filepath.Join(dir, "data.heap")
			tc.damage(t, heap, saved)
			before, err := os.ReadFile(heap)
			if err != nil {
				t.Fatal(err)
			}
			if db, err := Open(dir); !errors.Is(err, ErrCorrupt) {
				if err == nil {
					t.Errorf("reopened with %d documents", db.NumDocuments())
					db.Close()
				}
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			if after, err := os.ReadFile(heap); err != nil || !bytes.Equal(after, before) {
				t.Errorf("Open changed data.heap: %d bytes before, %d after (%v)", len(before), len(after), err)
			}
		})
	}
}

// TestOpenCatchesUpDeletes closes a database whose only batch since the
// checkpoint deletes a document, so the heap holds no record the index
// lacks. Open removes the document's entries all the same, and
// checkpoints; the next Open, whose index holds that delete, removes
// nothing and writes nothing.
func TestOpenCatchesUpDeletes(t *testing.T) {
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
	saved := db.index.Entries()
	if err := db.DeleteDocument(1); err != nil {
		t.Fatal(err)
	}
	want := db.index.Entries()
	if want >= saved {
		t.Fatalf("fixture: the delete left %d entries of %d", want, saved)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, reopen := range []string{"first", "second"} {
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.index.Entries(); got != want || db.IndexHealth() != nil {
			t.Errorf("%s reopen: %d entries (%v), want %d", reopen, got, db.IndexHealth(), want)
		}
		if got := db.Metrics().BTree.PageWrites; (reopen == "first") != (got > 0) {
			t.Errorf("%s reopen wrote %d pages", reopen, got)
		}
		queriesMatchScan(t, db, reopen+" reopen", []string{"//article[author]/title", "//book/title", "//title"})
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeapTruncatedUnderOpenDB cuts data.heap short from outside while
// the database is open: the pages past the cut no longer exist, so a
// query that navigates a record there — through the published generation
// or a View pinned before the cut, each of which reads the heap in place
// in its own mapping — returns a read error, not a contained panic, and
// leaves the index healthy; Scrub reports the heap damaged, and the
// process lives on.
func TestHeapTruncatedUnderOpenDB(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1200; i++ {
		if _, err := db.AddDocumentString(docs[i%len(docs)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if db.store.Size() < 3*int64(os.Getpagesize()) {
		t.Fatalf("fixture: a %d-byte heap does not reach past its second page", db.store.Size())
	}
	pinned := db.View()
	defer pinned.Close()
	if err := os.Truncate(filepath.Join(dir, "data.heap"), int64(os.Getpagesize())); err != nil {
		t.Fatal(err)
	}
	if res, err := db.Query("//article[author]/title"); err == nil || errors.Is(err, ErrPanic) {
		t.Errorf("query over a truncated heap = %+v, %v; want a read error", res, err)
	}
	if res, err := pinned.Query("//article[author]/title"); err == nil || errors.Is(err, ErrPanic) {
		t.Errorf("pinned View's query over a truncated heap = %+v, %v; want a read error", res, err)
	}
	if ok, err := pinned.Exists("//article[author][title=\"none\"]"); err == nil || errors.Is(err, ErrPanic) {
		t.Errorf("pinned View's Exists over a truncated heap = %v, %v; want a read error", ok, err)
	}
	if ids, err := pinned.QueryDocuments("//article", ScanOnly()); err == nil || errors.Is(err, ErrPanic) {
		t.Errorf("pinned View's QueryDocuments over a truncated heap = %v, %v; want a read error", ids, err)
	}
	if err := db.IndexHealth(); err != nil {
		t.Errorf("a read error degraded the index: %v", err)
	}
	rep, err := db.Scrub(ScrubConfig{})
	if !rep.HeapDamaged || !errors.Is(err, ErrCorrupt) {
		t.Errorf("Scrub of a truncated heap = %+v, %v; want HeapDamaged and ErrCorrupt", rep, err)
	}
}

// TestHeapReadFault injects a fault into one read of the record heap,
// wrapped the way the crash sweeps wrap it: the query that makes that
// read returns the injected error, and the next one answers.
func TestHeapReadFault(t *testing.T) {
	dir, want := buildPersistentDB(t)
	// Open reads the heap's header twice — the first read tells its
	// format — and then the whole heap, which is smaller than the scan's
	// window, in one read; the read after those is the query's.
	pl := &storage.FaultPlan{FailRead: 4}
	restore := withFaultFiles(pl)
	db, err := Open(dir)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if res, err := db.Query("//article[author]/title"); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("query over a failing heap read = %+v, %v; want ErrInjected", res, err)
	}
	if got, err := db.Query("//article[author]/title"); err != nil || got.Count != want.Count {
		t.Errorf("query after the fault = %+v, %v; want count %d", got, err, want.Count)
	}
}

// panickyHeap is a heap file whose reads panic once armed, the way a bug
// below the matcher would.
type panickyHeap struct {
	storage.File
	armed *atomic.Bool
}

func (f panickyHeap) ReadAt(p []byte, off int64) (int, error) {
	if f.armed.Load() {
		panic("heap read bug")
	}
	return f.File.ReadAt(p, off)
}

// TestRefinementPanicDegrades: the fault guard around refinement turns
// only a memory fault into a read error. Any other panic in refinement —
// here one in the heap read a candidate's fetch makes — still reaches the
// DB's barrier, returns ErrPanic and degrades the index, and the scan
// fallback answers once the heap reads again.
func TestRefinementPanicDegrades(t *testing.T) {
	dir, want := buildPersistentDB(t)
	var armed atomic.Bool
	origOpen := fileOpen
	fileOpen = func(path string) (storage.File, error) {
		f, err := storage.Open(path)
		if err != nil || filepath.Base(path) != "data.heap" {
			return f, err
		}
		return panickyHeap{File: f, armed: &armed}, nil
	}
	db, err := Open(dir)
	fileOpen = origOpen
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	armed.Store(true)
	if res, err := db.Query("//article[author]/title"); !errors.Is(err, ErrPanic) {
		t.Fatalf("query whose refinement panics = %+v, %v; want ErrPanic", res, err)
	}
	if db.IndexHealth() == nil {
		t.Error("a panic in refinement did not degrade the index")
	}
	armed.Store(false)
	if got, err := db.Query("//article[author]/title"); err != nil || got.Count != want.Count || !got.ScanFallback {
		t.Errorf("query after the panic = %+v, %v; want count %d from the scan fallback", got, err, want.Count)
	}
}
