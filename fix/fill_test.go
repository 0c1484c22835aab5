package fix

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/btree"
	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// xmarkEntityDocs splits a generated XMark site into its entity documents
// (item, person, auction, category) and shuffles them, the population a
// served write workload streams.
func xmarkEntityDocs(seed int64, scale float64) []string {
	entity := map[string]bool{"item": true, "person": true, "open_auction": true, "closed_auction": true, "category": true}
	var docs []string
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		for _, c := range n.Children {
			switch {
			case c.IsText():
			case entity[c.Label]:
				docs = append(docs, xmltree.MarshalString(c))
			default:
				walk(c)
			}
		}
	}
	walk(datagen.XMark(datagen.Config{Seed: seed, Scale: scale}))
	rand.New(rand.NewSource(seed)).Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	return docs
}

// xmarkQueries are the paper's XMark queries (Table 2 and Figure 6).
var xmarkQueries = []string{
	"//category/description[parlist]/parlist/listitem/text",
	"//closed_auction/annotation/description/text",
	"//open_auction[seller]/annotation/description/text",
	"//item/mailbox/mail/text/emph/keyword",
	"//description/parlist/listitem",
	"//item[name]/mailbox/mail[to]/text[bold]/emph/bold",
	"//item[payment][quantity][shipping][mailbox/mail/text]/description/parlist",
}

// indexMatchesScan requires a verified index that answers the paper's
// XMark queries as a scan does.
func indexMatchesScan(t *testing.T, db *DB, when string) {
	t.Helper()
	queriesMatchScan(t, db, when, xmarkQueries)
}

// queriesMatchScan requires a verified index that answers queries as a
// scan does.
func queriesMatchScan(t *testing.T, db *DB, when string, queries []string) {
	t.Helper()
	if err := db.VerifyIndex(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for _, q := range queries {
		got, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", when, q, err)
		}
		want, err := db.Query(q, ScanOnly())
		if err != nil {
			t.Fatalf("%s: %s (scan): %v", when, q, err)
		}
		if got.ScanFallback || got.Count != want.Count {
			t.Errorf("%s: %s: index %d results (fallback %t), scan %d", when, q, got.Count, got.ScanFallback, want.Count)
		}
	}
}

// TestIncrementalIndexFill grows a depth-6 index the way a server does —
// half of an XMark entity stream bulk-built, the rest ingested in small
// requests — and requires the leaves the inserts split to fill: at most 5.7
// index bytes per entry, 1.1 × the 5.18 this run ends at (with every split
// of a leaf whose chunk grew cut at mid, 5.59; packed by a rebuild, 3.30;
// with one B-tree cell per entry it ended at 12.8, and with 9-byte values
// at 20.3), with the index verified and agreeing with a scan on the
// paper's XMark queries before and after a checkpoint and a reopen.
func TestIncrementalIndexFill(t *testing.T) {
	dir := t.TempDir()
	docs := xmarkEntityDocs(1, 0.4)
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	half := len(docs) / 2
	for _, d := range docs[:half] {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{DepthLimit: 6}); err != nil {
		t.Fatal(err)
	}
	ing := db.NewIngester(IngestConfig{})
	for rest := docs[half:]; len(rest) > 0; {
		n := min(4, len(rest))
		if _, err := ing.AddBatch(context.Background(), rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(when string) {
		t.Helper()
		perEntry := float64(db.IndexSizeBytes()) / float64(db.IndexEntries())
		t.Logf("%s: %d documents, %d entries, %d index bytes, %.1f B/entry", when, db.NumDocuments(), db.IndexEntries(), db.IndexSizeBytes(), perEntry)
		if perEntry > 5.7 {
			t.Errorf("%s: %.2f index bytes per entry, want at most 5.7", when, perEntry)
		}
		indexMatchesScan(t, db, when)
	}
	check("after the ingest")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	check("after checkpoint and reopen")
}

// copyFixture copies a database directory under testdata into a fresh
// temporary directory and returns its path.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	copyFiles(t, filepath.Join("testdata", name), dir)
	return dir
}

// copyFiles copies the files of directory src into directory dst.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// degradedIndex opens a copy of index-written-by-pr42 that damage has
// hurt where Open finds it, and requires what an operator meets: Open
// succeeds, the index is degraded with a health error that wraps
// ErrCorrupt, and every query is answered exactly, by scan.
func degradedIndex(t *testing.T, damage func(t *testing.T, dir string)) (dir string, db *DB) {
	t.Helper()
	dir = copyFixture(t, "index-written-by-pr42")
	damage(t, dir)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if health := db.IndexHealth(); !errors.Is(health, ErrCorrupt) {
		t.Fatalf("IndexHealth = %v, want ErrCorrupt", health)
	}
	if db.NumDocuments() != 28 || !db.HasIndex() {
		t.Fatalf("fixture holds %d documents (index: %t), want 28 and an index", db.NumDocuments(), db.HasIndex())
	}
	for _, q := range xmarkQueries {
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(q, ScanOnly())
		if err != nil {
			t.Fatal(err)
		}
		if !got.ScanFallback || got.Count != want.Count {
			t.Errorf("%s on the degraded index: %d results (fallback %t), scan %d", q, got.Count, got.ScanFallback, want.Count)
		}
	}
	return dir, db
}

// indexDamage is, by name, damage that degrades index-written-by-pr42 at
// Open: a flipped byte in fix.btree's meta page, or no fix.btree at all.
var indexDamage = map[string]func(t *testing.T, dir string){
	"flipped meta page": func(t *testing.T, dir string) { flipByte(t, filepath.Join(dir, "fix.btree"), 100) },
	"missing fix.btree": func(t *testing.T, dir string) {
		if err := os.Remove(filepath.Join(dir, "fix.btree")); err != nil {
			t.Fatal(err)
		}
	},
}

// rebuiltIndexSurvives requires the healthy index a rebuild of
// index-written-by-pr42 leaves, 528 entries in fix.meta version 8, before
// and after a checkpoint and a reopen.
func rebuiltIndexSurvives(t *testing.T, dir string, db *DB) {
	t.Helper()
	if err := db.IndexHealth(); err != nil || db.IndexEntries() != 528 {
		t.Fatalf("after the rebuild: health %v, %d entries, want a healthy index of 528", err, db.IndexEntries())
	}
	indexMatchesScan(t, db, "after the rebuild")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if meta, err := os.ReadFile(filepath.Join(dir, "fix.meta")); err != nil || !bytes.HasPrefix(meta, []byte("version 8\n")) {
		t.Fatalf("after the rebuild fix.meta is %q (%v), want version 8", meta, err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	if err := db.IndexHealth(); err != nil || db.IndexEntries() != 528 {
		t.Fatalf("after checkpoint and reopen: health %v, %d entries, want a healthy index of 528", err, db.IndexEntries())
	}
	indexMatchesScan(t, db, "after checkpoint and reopen")
}

// TestKeyOfWrongLengthDegrades: a B-tree holding one key that is not
// keySize bytes — 28, after the last chunk of open_auction's label —
// under a fix.meta that describes it opens healthy. Verify fails
// ErrCorrupt on it, and a query whose probe meets it degrades the index
// and answers exactly by scan instead of reading σ out of the wrong bytes.
func TestKeyOfWrongLengthDegrades(t *testing.T) {
	for _, verifyFirst := range []bool{true, false} {
		dir := copyFixture(t, "index-written-by-pr42")
		addWrongLengthKey(t, dir, "open_auction")
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.IndexHealth(); err != nil {
			t.Fatalf("health before any read of a key: %v", err)
		}
		if verifyFirst {
			if err := db.VerifyIndex(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "28 bytes, want 20") {
				t.Fatalf("VerifyIndex = %v, want ErrCorrupt naming a 28-byte key", err)
			}
		}
		const q = "//open_auction[seller]/annotation/description/text"
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(q, ScanOnly())
		if err != nil {
			t.Fatal(err)
		}
		if !got.ScanFallback || got.Count != want.Count {
			t.Errorf("verify first %t: %d results (fallback %t), scan %d", verifyFirst, got.Count, got.ScanFallback, want.Count)
		}
		if h := db.IndexHealth(); !errors.Is(h, ErrCorrupt) {
			t.Errorf("verify first %t: health after the query = %v, want ErrCorrupt", verifyFirst, h)
		}
		_ = db.Close()
	}
}

// addWrongLengthKey writes into dir's fix.btree, beside the last chunk of
// label's partition, a copy of it whose key is 8 bytes too long.
func addWrongLengthKey(t *testing.T, dir, label string) {
	t.Helper()
	df, err := os.Open(filepath.Join(dir, "labels.dict"))
	if err != nil {
		t.Fatal(err)
	}
	dict, err := xmltree.ReadDict(df)
	_ = df.Close()
	if err != nil {
		t.Fatal(err)
	}
	id, ok := dict.Lookup(label)
	if !ok {
		t.Fatalf("labels.dict has no %q", label)
	}
	f, err := storage.Open(filepath.Join(dir, "fix.btree"))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := btree.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	var key, val []byte
	err = bt.Scan(binary.BigEndian.AppendUint32(nil, id), binary.BigEndian.AppendUint32(nil, id+1), func(k, v []byte) bool {
		key, val = append(key[:0], k...), append(val[:0], v...)
		return true
	})
	if err != nil || key == nil {
		t.Fatalf("no chunk of %q in fix.btree (%v)", label, err)
	}
	if err := bt.Put(append(key, make([]byte, 8)...), val); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexWrittenByThisFormatServes opens a database directory written by
// the commit that made the heap its own log (28 XMark entity documents, 4
// bulk-built at depth 6 and 24 ingested four a request, checkpointed;
// testdata/index-written-by-pr42: batch trailers in data.heap, fix.meta
// version 8, no fix.tomb or fix.ingest), and uses it as a server would:
// verify, ingest enough to split its leaves, checkpoint, reopen. It is
// the anchor for the next change to the format: that change adds the
// degraded open of the version before it, and tests it on this directory.
func TestIndexWrittenByThisFormatServes(t *testing.T) {
	dir := copyFixture(t, "index-written-by-pr42")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	if err := db.IndexHealth(); err != nil {
		t.Fatal(err)
	}
	if db.NumDocuments() != 28 || db.IndexEntries() != 528 {
		t.Fatalf("fixture holds %d documents and %d entries, want 28 and 528", db.NumDocuments(), db.IndexEntries())
	}
	indexMatchesScan(t, db, "as written")
	pages := db.IndexSizeBytes()
	if _, err := db.IngestBatchCtx(context.Background(), xmarkEntityDocs(3, 0.02)); err != nil {
		t.Fatal(err)
	}
	if db.IndexSizeBytes() < 2*pages {
		t.Fatalf("index grew from %d to %d bytes: too little to have split the fixture's leaves", pages, db.IndexSizeBytes())
	}
	indexMatchesScan(t, db, "after the ingest")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	indexMatchesScan(t, db, "after checkpoint and reopen")
}
