package fix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
// ordinary pages: 280 wide documents under a depth-1 index of some 400
// four-kilobyte pages, then two acknowledged submissions that change over
// 256 of them — documents wideDoc spreads over the whole key space — no
// checkpoint, Close, Open. Close closes the index's files and commits
// nothing; Open replays the log onto the index the last checkpoint
// committed, whole, so the index comes back healthy and sound, with every
// acknowledged document, and agrees with a scan.
func TestCloseReopenLargeIndex(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 280; i++ {
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
	if got := re.NumDocuments(); got != 282 || re.DeletedDocuments() != 1 {
		t.Errorf("%d documents, %d deleted; want 282 and 1", got, re.DeletedDocuments())
	}
	if n := re.Metrics().BTree.PageWrites; n <= 256 {
		t.Errorf("fixture: the recovery checkpoint wrote %d pages, want the window's more than 256", n)
	}
}
