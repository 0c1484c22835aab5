package fix

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// plantBadChunk puts a chunk whose value does not decode (an over-long
// uvarint) in label's partition of db's live index at σ = +Inf, where
// every probe that reaches the partition reads it, and publishes it.
func plantBadChunk(t *testing.T, db *DB, label string) {
	t.Helper()
	id, ok := db.dict.Lookup(label)
	if !ok {
		t.Fatalf("no label %q", label)
	}
	key := make([]byte, 20) // label, σ in order-preserving form, first pointer
	binary.BigEndian.PutUint32(key, id)
	binary.BigEndian.PutUint64(key[4:], math.Float64bits(math.Inf(1))|1<<63)
	if err := db.indexRef().BTree().Put(key, []byte{0x82, 0x00}); err != nil {
		t.Fatal(err)
	}
	db.publish()
}

// TestBadValueIsErrCorrupt: a chunk the probe cannot decode sends every
// read operation to the exact scan — Query, Exists and QueryDocuments
// alike, each on a database of its own, as the first to meet the chunk
// latches the health — and leaves the index's health ErrCorrupt.
func TestBadValueIsErrCorrupt(t *testing.T) {
	const q = "//author[email]"
	healthy := newTestDB(t, IndexOptions{})
	wantRes, err := healthy.Query(q, ScanOnly())
	if err != nil {
		t.Fatal(err)
	}
	wantDocs, err := healthy.QueryDocuments(q, ScanOnly())
	if err != nil || len(wantDocs) == 0 {
		t.Fatalf("scan's documents = %v, %v; want some", wantDocs, err)
	}
	for _, read := range []struct {
		name string
		run  func(db *DB) error
	}{
		{"Query", func(db *DB) error {
			if res, err := db.Query(q); err != nil || res.Count != wantRes.Count || !res.ScanFallback {
				return fmt.Errorf("= %+v, %v; want %d results by scan", res, err, wantRes.Count)
			}
			return nil
		}},
		{"Exists", func(db *DB) error {
			if ok, err := db.Exists(q); err != nil || !ok {
				return fmt.Errorf("= %v, %v; want true", ok, err)
			}
			return nil
		}},
		{"QueryDocuments", func(db *DB) error {
			if docs, err := db.QueryDocuments(q); err != nil || !slices.Equal(docs, wantDocs) {
				return fmt.Errorf("= %v, %v; want the scan's %v", docs, err, wantDocs)
			}
			return nil
		}},
	} {
		db := newTestDB(t, IndexOptions{})
		plantBadChunk(t, db, "author")
		if err := read.run(db); err != nil {
			t.Errorf("%s %v", read.name, err)
		}
		if h := db.IndexHealth(); !errors.Is(h, ErrCorrupt) {
			t.Errorf("health after %s = %v, want ErrCorrupt", read.name, h)
		}
		_ = db.Close()
	}
}

// TestViewPinnedSnapshot pins a view, commits more data, and checks the
// view keeps answering from its frozen generation while the DB moves on.
func TestViewPinnedSnapshot(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	v := db.View()
	defer v.Close()

	res, err := v.Query("//article[author]/title")
	if err != nil || res.Count != 2 {
		t.Fatalf("view query = %+v, %v; want count 2", res, err)
	}
	gen0 := v.Generation()

	// Commit another matching document; AddDocument publishes.
	if _, err := db.AddDocumentString(docs[0]); err != nil {
		t.Fatal(err)
	}
	if db.GenerationID() <= gen0 {
		t.Errorf("GenerationID = %d after a commit, want > %d", db.GenerationID(), gen0)
	}

	// The pinned view still answers from the old snapshot...
	res, err = v.Query("//article[author]/title")
	if err != nil || res.Count != 2 {
		t.Errorf("pinned view query = %+v, %v; want the pre-commit count 2", res, err)
	}
	ids, err := v.QueryDocuments("//author[email]")
	if err != nil || len(ids) != 2 {
		t.Errorf("pinned view QueryDocuments = %v, %v; want 2 documents", ids, err)
	}
	// ...while the DB (and a fresh view) see the new document.
	res, err = db.Query("//article[author]/title")
	if err != nil || res.Count != 3 {
		t.Errorf("db query after commit = %+v, %v; want count 3", res, err)
	}
	v2 := db.View()
	defer v2.Close()
	if v2.Generation() <= gen0 {
		t.Errorf("fresh view generation = %d, want > %d", v2.Generation(), gen0)
	}
	res, err = v2.Query("//article[author]/title")
	if err != nil || res.Count != 3 {
		t.Errorf("fresh view query = %+v, %v; want count 3", res, err)
	}
}

// TestViewAfterDBClose queries a View pinned before DB.Close. Its index
// image still answers the probe, but the heap file is closed: every
// query that has to read a document returns the error instead of
// crashing the process.
func TestViewAfterDBClose(t *testing.T) {
	db, err := Create(filepath.Join(t.TempDir(), "db"))
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
	v := db.View()
	defer v.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := v.Query("//article[author]/title"); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Query after DB.Close = %+v, %v; want os.ErrClosed", res, err)
	}
	if ids, err := v.QueryDocuments("//author[email]", ScanOnly()); !errors.Is(err, os.ErrClosed) {
		t.Errorf("QueryDocuments after DB.Close = %v, %v; want os.ErrClosed", ids, err)
	}
}

// TestViewClosed checks Close is idempotent and queries after it fail
// with the sentinel.
func TestViewClosed(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	v := db.View()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Query("//article"); !errors.Is(err, ErrViewClosed) {
		t.Errorf("Query after Close = %v, want ErrViewClosed", err)
	}
	if _, err := v.Exists("//article"); !errors.Is(err, ErrViewClosed) {
		t.Errorf("Exists after Close = %v, want ErrViewClosed", err)
	}
	if _, err := v.QueryDocuments("//article"); !errors.Is(err, ErrViewClosed) {
		t.Errorf("QueryDocuments after Close = %v, want ErrViewClosed", err)
	}
}

// TestGenerationPinRelease is the pin-leak test: old generations must be
// reclaimed as soon as their last View closes, and the live count must
// return to exactly one (the published generation).
func TestGenerationPinRelease(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	if n := db.LiveGenerations(); n != 1 {
		t.Fatalf("LiveGenerations at rest = %d, want 1", n)
	}
	v1 := db.View()
	v2 := db.View() // same generation: pins, not generations
	if n := db.LiveGenerations(); n != 1 {
		t.Fatalf("LiveGenerations with two views of one generation = %d, want 1", n)
	}
	// Each commit publishes; the pinned old generation stays live.
	if _, err := db.AddDocumentString(docs[0]); err != nil {
		t.Fatal(err)
	}
	if n := db.LiveGenerations(); n != 2 {
		t.Fatalf("LiveGenerations with a pinned old generation = %d, want 2", n)
	}
	v3 := db.View() // pins the new generation
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.LiveGenerations(); n != 2 {
		t.Fatalf("LiveGenerations after first close = %d, want 2 (v2 still pins)", n)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.LiveGenerations(); n != 1 {
		t.Fatalf("LiveGenerations after the old generation's last close = %d, want 1", n)
	}
	if err := v3.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.LiveGenerations(); n != 1 {
		t.Fatalf("LiveGenerations at rest again = %d, want 1", n)
	}
}

// TestRecoveryPublishesOneGeneration is the crash test: a reopen that
// replays the ingest WAL must end with exactly one published generation
// covering the replayed state.
func TestRecoveryPublishesOneGeneration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
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
	// Acknowledged but never Saved: recovery must replay these.
	if _, err := db.IngestBatchCtx(context.Background(), docs[1:3]); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // crash stand-in: no Save
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if n := re.LiveGenerations(); n != 1 {
		t.Errorf("LiveGenerations after recovery = %d, want exactly 1", n)
	}
	if g := re.GenerationID(); g != 1 {
		t.Errorf("GenerationID after recovery = %d, want 1 (one publish at Open)", g)
	}
	// The single published generation covers the replayed operations.
	v := re.View()
	defer v.Close()
	res, err := v.Query("//article[author]/title")
	if err != nil || res.Count != 2 {
		t.Errorf("recovered view query = %+v, %v; want count 2", res, err)
	}
}

// TestConcurrentViewsDuringSwaps is the -race stress test for the
// lock-free read path: readers query pinned views and the DB-level
// wrappers while a writer commits documents, Saves, and rebuilds the
// index. Every query must succeed (zero dropped) and every count must
// be a value some published generation actually held (never torn).
func TestConcurrentViewsDuringSwaps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	const base = 8
	for i := 0; i < base; i++ {
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
	baseRes, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		writes  = 24
	)
	var (
		wg      sync.WaitGroup
		done    atomic.Bool
		queries atomic.Int64
	)
	errs := make(chan error, readers+1)

	// Writer: every document is docs[0] (matches the query), so the
	// count visible to any generation is base matches + the number of
	// commits published at its freeze — strictly monotonic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < writes; i++ {
			if _, err := db.AddDocumentString(docs[0]); err != nil {
				errs <- fmt.Errorf("writer add %d: %w", i, err)
				return
			}
			switch {
			case i%8 == 5:
				if err := db.Save(); err != nil {
					errs <- fmt.Errorf("writer save %d: %w", i, err)
					return
				}
			case i%8 == 7:
				if err := db.RebuildIndex(); err != nil {
					errs <- fmt.Errorf("writer rebuild %d: %w", i, err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := -1 // per-reader: generations only move forward
			for !done.Load() {
				v := db.View()
				res1, err := v.Query("//article[author]/title")
				if err != nil {
					errs <- fmt.Errorf("reader %d query: %w", r, err)
					_ = v.Close()
					return
				}
				// Repeatable read: the same view answers identically.
				res2, err := v.Query("//article[author]/title")
				if err != nil {
					errs <- fmt.Errorf("reader %d requery: %w", r, err)
					_ = v.Close()
					return
				}
				if res1.Count != res2.Count {
					errs <- fmt.Errorf("reader %d: view count changed %d -> %d within one pin", r, res1.Count, res2.Count)
					_ = v.Close()
					return
				}
				// Not torn: the count is base plus a whole number of
				// committed writes, inside the writer's range.
				delta := res1.Count - baseRes.Count
				if delta < 0 || delta > writes {
					errs <- fmt.Errorf("reader %d: torn count %d (base %d, writes %d)", r, res1.Count, baseRes.Count, writes)
					_ = v.Close()
					return
				}
				if delta < last {
					errs <- fmt.Errorf("reader %d: count went backwards %d -> %d", r, last, delta)
					_ = v.Close()
					return
				}
				last = delta
				if _, err := v.Exists("//author[email]"); err != nil {
					errs <- fmt.Errorf("reader %d exists: %w", r, err)
					_ = v.Close()
					return
				}
				_ = v.Close()
				// The lock-free DB wrappers ride the same path.
				if _, err := db.Query("//article[author]/title"); err != nil {
					errs <- fmt.Errorf("reader %d db query: %w", r, err)
					return
				}
				queries.Add(1)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if queries.Load() == 0 {
		t.Fatal("stress ran zero reader iterations")
	}
	if n := db.LiveGenerations(); n != 1 {
		t.Errorf("LiveGenerations after stress = %d, want 1 (no pin leaks)", n)
	}
	// The final state is fully visible.
	res, err := db.Query("//article[author]/title")
	if err != nil || res.Count != baseRes.Count+writes {
		t.Errorf("final count = %+v, %v; want %d", res, err, baseRes.Count+writes)
	}
}
