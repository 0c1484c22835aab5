package fix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// unabsorbedFixture is a directory the format before batch trailers
// wrote (the commit before this format; see checkUnabsorbedFixture): 4
// XMark entity documents bulk-built at depth 6, 8 ingested four a request
// and record 1 deleted, checkpointed — fix.tomb holds record 1 — then 8
// more four a request, one document whose labels labels.dict does not
// hold, and the deletes of records 5 and 13, closed without a
// checkpoint: fix.ingest holds those 11 operations over a base of 12
// records.
const unabsorbedFixture = "unabsorbed-log-written-by-pr40"

// writeOldTombstones writes dir's fix.tomb as the format before batch
// trailers spelled it.
func writeOldTombstones(t *testing.T, dir string, recs ...uint32) {
	t.Helper()
	b := []byte("FIXTOMB1")
	b = binary.BigEndian.AppendUint32(b, uint32(len(recs)))
	for _, r := range recs {
		b = binary.BigEndian.AppendUint32(b, r)
	}
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, "fix.tomb"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkUnabsorbedFixture requires what converting unabsorbedFixture
// yields: exactly the 21 acknowledged documents, records 1, 5 and 13
// deleted, the document with the new labels readable, a healthy index
// that needed no rebuild and answers as a scan does, a heap with batch
// trailers and neither fix.ingest nor fix.tomb left.
func checkUnabsorbedFixture(t *testing.T, dir string, db *DB) {
	t.Helper()
	if db.NumDocuments() != 21 || db.DeletedDocuments() != 3 {
		t.Fatalf("%d documents, %d deleted; want 21 and 3", db.NumDocuments(), db.DeletedDocuments())
	}
	for _, rec := range []uint32{1, 5, 13} {
		if !db.store.IsDeleted(rec) {
			t.Errorf("record %d is not deleted", rec)
		}
	}
	if doc, err := db.Document(20); err != nil || doc != `<watchlist><watch>item7</watch><note>new label</note></watchlist>` {
		t.Errorf("Document(20) = %q, %v", doc, err)
	}
	if err := db.IndexHealth(); err != nil {
		t.Fatalf("index degraded: %v", err)
	}
	queriesMatchScan(t, db, "converted", append(slices.Clone(xmarkQueries), "//watchlist[note]", "//item", "//person"))
	if res, err := db.Query("//watchlist[note]"); err != nil || res.Count != 1 {
		t.Errorf("//watchlist[note] = %+v, %v; want 1", res, err)
	}
	for _, name := range []string{"fix.ingest", "fix.tomb"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s is still there (%v)", name, err)
		}
	}
	if heap, err := os.ReadFile(filepath.Join(dir, "data.heap")); err != nil || !bytes.HasPrefix(heap, []byte("FIXSTOR2")) {
		t.Errorf("data.heap starts %q (%v), want FIXSTOR2", heap[:min(8, len(heap))], err)
	}
}

// TestUnabsorbedLogConverts opens unabsorbedFixture: the
// log is replayed once through the group commit, the index is caught up
// and checkpointed, the old files go, and a reopen finds the same.
func TestUnabsorbedLogConverts(t *testing.T) {
	dir := copyFixture(t, unabsorbedFixture)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkUnabsorbedFixture(t, dir, db)
	if db.IngestLag() != 0 {
		t.Errorf("IngestLag = %d after the conversion's checkpoint", db.IngestLag())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkUnabsorbedFixture(t, dir, db)
}

// TestConversionCrashSweep crashes the conversion of unabsorbedFixture at
// every write, sync, truncation and file removal it makes to the heap,
// the log and the tombstones, plain and torn; the next Open, over the
// files as the crash left them, converts again to exactly the
// acknowledged documents.
func TestConversionCrashSweep(t *testing.T) {
	dry := &storage.FaultPlan{}
	restore := withFaultFiles(dry)
	db, err := Open(copyFixture(t, unabsorbedFixture))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	writes := dry.Writes()
	_ = db.Close()
	if writes < 5 {
		t.Fatalf("the conversion made %d writes", writes)
	}
	for n := 1; n <= writes; n++ {
		for _, torn := range []bool{false, true} {
			ctx := fmt.Sprintf("write %d (torn=%t)", n, torn)
			dir := copyFixture(t, unabsorbedFixture)
			pl := &storage.FaultPlan{FailWrite: n, Torn: torn}
			restore := withFaultFiles(pl)
			db, err := Open(dir)
			restore()
			if err == nil {
				_ = db.Close()
				t.Fatalf("%s: Open succeeded", ctx)
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s: %v", ctx, err)
			}
			if db, err = Open(dir); err != nil {
				t.Fatalf("%s: reopen: %v", ctx, err)
			}
			checkUnabsorbedFixture(t, dir, db)
			_ = db.Close()
		}
	}
}

// trackedFile records whether it was closed.
type trackedFile struct {
	storage.File
	closed bool
}

func (f *trackedFile) Close() error {
	f.closed = true
	return f.File.Close()
}

// TestOpenClosesFilesWhenItFails opens, through the fileOpen seam, copies
// of unabsorbedFixture that Open cannot open: one whose fix.tomb is
// corrupt, and one for each write, sync, truncation and file removal of
// the conversion — the heap's cut, its trailer and syncs, the replay's
// group commit, the checkpoint — failing there. Open fails, and every
// file it opened is closed.
func TestOpenClosesFilesWhenItFails(t *testing.T) {
	// openTracked opens dir under pl and returns the files Open opened,
	// the writes it made and its error.
	openTracked := func(dir string, pl *storage.FaultPlan) ([]*trackedFile, int, error) {
		var (
			mu     sync.Mutex
			opened []*trackedFile
		)
		restore := withFaultFiles(pl)
		wrapped := fileOpen
		fileOpen = func(path string) (storage.File, error) {
			f, err := wrapped(path)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			tf := &trackedFile{File: f}
			opened = append(opened, tf)
			return tf, nil
		}
		defer restore()
		db, err := Open(dir)
		writes := pl.Writes()
		if err == nil {
			_ = db.Close()
		}
		return opened, writes, err
	}
	check := func(ctx string, opened []*trackedFile, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: Open succeeded", ctx)
		}
		if len(opened) == 0 {
			t.Fatalf("%s: Open opened no file through the seam", ctx)
		}
		for i, f := range opened {
			if !f.closed {
				t.Errorf("%s: file %d of %d Open opened is still open", ctx, i+1, len(opened))
			}
		}
	}
	dir := copyFixture(t, unabsorbedFixture)
	flipByte(t, filepath.Join(dir, "fix.tomb"), 9)
	opened, _, err := openTracked(dir, &storage.FaultPlan{})
	check("a corrupt fix.tomb", opened, err)

	_, writes, err := openTracked(copyFixture(t, unabsorbedFixture), &storage.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= writes; n++ {
		opened, _, err := openTracked(copyFixture(t, unabsorbedFixture), &storage.FaultPlan{FailWrite: n})
		check(fmt.Sprintf("write %d of %d failing", n, writes), opened, err)
	}
}

// TestOldHeapTornTail converts copies of index-written-by-pr39 with no
// ingest log whose FIXSTOR1 heap has a record running past its end. Only
// Save acknowledged a document in that format, so a torn append past the
// index's count is cut and the 28 saved documents convert; a corrupt
// length prefix on a record the index covers, or any such record without
// an index, fails Open with ErrCorrupt and leaves data.heap as it was.
func TestOldHeapTornTail(t *testing.T) {
	tornAppend := func(t *testing.T, heap string) {
		f, err := os.OpenFile(heap, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte{0, 0, 0, 100}); err != nil {
			t.Fatal(err)
		}
	}
	corruptRecord1 := func(t *testing.T, heap string) {
		b, err := os.ReadFile(heap)
		if err != nil {
			t.Fatal(err)
		}
		b[8+4+binary.BigEndian.Uint32(b[8:])] = 0x40
		if err := os.WriteFile(heap, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		indexed bool
		damage  func(t *testing.T, heap string)
		corrupt bool
	}{
		{"torn append past the index", true, tornAppend, false},
		{"corrupt prefix of record 1", true, corruptRecord1, true},
		{"corrupt prefix of record 1 without an index", false, corruptRecord1, true},
		{"torn append without an index", false, tornAppend, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyFixture(t, "index-written-by-pr39")
			drop := []string{"fix.ingest"}
			if !tc.indexed {
				drop = append(drop, "fix.meta", "fix.btree", "fix.edges")
			}
			for _, name := range drop {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
			heap := filepath.Join(dir, "data.heap")
			tc.damage(t, heap)
			before, err := os.ReadFile(heap)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(dir)
			if !tc.corrupt {
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if db.NumDocuments() != 28 || db.IndexHealth() != nil {
					t.Errorf("converted to %d documents (%v), want 28", db.NumDocuments(), db.IndexHealth())
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				if err == nil {
					t.Errorf("converted to %d documents", db.NumDocuments())
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
