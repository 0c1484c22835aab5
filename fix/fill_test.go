package fix

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
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

// oldFormatIndex opens a copy of testdata/<fixture> — the documents of
// shapeOf(fixture), indexed and checkpointed by an earlier commit in a
// format this one does not read — and requires what an upgrade in place
// meets: Open succeeds, the index is degraded with a health error that
// wraps ErrCorrupt, names the format (degradedBy) and says to rebuild, and
// every query is answered exactly, by scan.
//
// index-written-by-pr20 and index-written-by-pr23 are under fix.meta
// version 2, whose values spelled a pointer as a flag byte and a big-endian
// u64. index-written-by-pr23 is old in its values only.
// index-written-by-pr20 is also in page format FIXBT002, but Open reads
// fix.meta before it opens fix.btree and keeps the first health problem
// only, so the meta version is what its health names: the remedy either
// would name is the same rebuild. index-written-by-pr25 and
// clustered-index-written-by-pr26 are under version 3, whose keys held
// λmin beside σ; the latter was built by the last commit with the
// clustered option (fixindex build -depth 6 -clustered): its values carry
// a second pointer, and a fix.clustered heap lies beside its B-tree — but
// the old version is the first problem Open meets, so it is what the
// health names. index-written-by-pr32 is under version 4, one entry a
// B-tree cell, keyed (label, σ, sequence number). index-written-by-pr34 is
// under version 5, chunks without a pair sketch. index-written-by-pr35 is
// under version 6, chunk heads without the depth to which their units
// agree. index-written-by-pr38 and tails-index-written-by-pr38 are under
// version 7, whose postings could carry spectrum tails; the latter was
// built with four of them a posting, and its index answers
// //inproceedings[author][booktitle] with one of the two matches a scan
// finds, so what it answers now is exact only because it is degraded.
func oldFormatIndex(t *testing.T, fixture string) (dir string, db *DB) {
	t.Helper()
	dir = copyFixture(t, fixture)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	health := db.IndexHealth()
	if !errors.Is(health, ErrCorrupt) {
		t.Fatalf("IndexHealth = %v, want ErrCorrupt", health)
	}
	for _, word := range append(degradedBy[fixture], "rebuild") {
		if !strings.Contains(health.Error(), word) {
			t.Fatalf("IndexHealth = %v, want it to name %q", health, word)
		}
	}
	shape := shapeOf(fixture)
	if db.NumDocuments() != shape.docs || !db.HasIndex() {
		t.Fatalf("fixture holds %d documents (index: %t), want %d and an index", db.NumDocuments(), db.HasIndex(), shape.docs)
	}
	for _, q := range shape.queries {
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

// degradedBy is, per old-format fixture, what the health of its index
// names besides the rebuild.
var degradedBy = map[string][]string{
	"index-written-by-pr20":           {"version 2", "writes 8"},
	"index-written-by-pr23":           {"version 2", "writes 8"},
	"index-written-by-pr25":           {"version 3", "writes 8"},
	"clustered-index-written-by-pr26": {"version 3", "writes 8"},
	"index-written-by-pr32":           {"version 4", "writes 8"},
	"index-written-by-pr34":           {"version 5", "writes 8"},
	"index-written-by-pr35":           {"version 6", "writes 8"},
	"index-written-by-pr38":           {"version 7", "writes 8"},
	"tails-index-written-by-pr38":     {"version 7", "writes 8"},
}

// fixtureShape is what an old-format fixture holds: its documents, the
// postings a rebuild of its index files, and the queries the index must
// answer as a scan does.
type fixtureShape struct {
	docs, entries int
	queries       []string
}

// shapeOf returns the shape of testdata/<fixture>: 28 XMark entity
// documents, 4 bulk-built at depth 6 and 24 ingested, or — the tails
// fixture — one DBLP document of three records indexed at depth 6.
func shapeOf(fixture string) fixtureShape {
	if fixture == "tails-index-written-by-pr38" {
		return fixtureShape{1, 30, []string{"//inproceedings[author][booktitle]", "//inproceedings[author]", "//article[author][journal]"}}
	}
	return fixtureShape{28, 528, xmarkQueries}
}

// rebuiltIndexSurvives requires the healthy index a rebuild of the
// old-format fixture leaves, in fix.meta version 8, with no fix.clustered
// heap beside it, before and after a checkpoint and a reopen.
func rebuiltIndexSurvives(t *testing.T, fixture, dir string, db *DB) {
	t.Helper()
	shape := shapeOf(fixture)
	if err := db.IndexHealth(); err != nil || db.IndexEntries() != shape.entries {
		t.Fatalf("after the rebuild: health %v, %d entries, want a healthy index of %d", err, db.IndexEntries(), shape.entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "fix.clustered")); !os.IsNotExist(err) {
		t.Fatalf("after the rebuild fix.clustered is still there (%v)", err)
	}
	queriesMatchScan(t, db, "after the rebuild", shape.queries)
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
	if err := db.IndexHealth(); err != nil || db.IndexEntries() != shape.entries {
		t.Fatalf("after checkpoint and reopen: health %v, %d entries, want a healthy index of %d", err, db.IndexEntries(), shape.entries)
	}
	queriesMatchScan(t, db, "after checkpoint and reopen", shape.queries)
}

// TestIndexWrittenBeforeRunSplitsStillServes is the hand-over from page
// format FIXBT002: there is no second reader, so the directory that commit
// wrote opens degraded and serves by scan (oldFormatIndex), and RebuildIndex
// — the repair path of any corrupt index — writes it anew in FIXBT003.
// TestMaintainerRebuildsOldFormatIndex is the same for a served database.
func TestIndexWrittenBeforeRunSplitsStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "index-written-by-pr20")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, "index-written-by-pr20", dir, db)
}

// TestIndexWrittenBeforeUvarintValuesStillServes is the hand-over from
// fix.meta version 2 on the directory the commit that introduced FIXBT003
// wrote (testdata/index-written-by-pr23): its pages read, but its values
// are in the flag-byte spelling nothing reads any more, so it opens degraded
// and serves by scan, and RebuildIndex writes it anew.
func TestIndexWrittenBeforeUvarintValuesStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "index-written-by-pr23")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, "index-written-by-pr23", dir, db)
}

// TestIndexWrittenBeforeOneSigmaKeysStillServes is the hand-over from
// fix.meta version 3 on the directory the commit that introduced it wrote
// (testdata/index-written-by-pr25): its keys are (label, λmax, λmin, seq),
// 28 bytes that no reader of version 4's 20 takes apart, so it opens
// degraded and serves by scan, and RebuildIndex writes it anew.
func TestIndexWrittenBeforeOneSigmaKeysStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "index-written-by-pr25")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, "index-written-by-pr25", dir, db)
}

// TestIndexWrittenBeforeChunksStillServes is the hand-over from fix.meta
// version 4 on the directory the commit that introduced it wrote
// (testdata/index-written-by-pr32): its keys are (label, σ, sequence
// number), one entry a cell, and a value one pointer — the same 20 bytes a
// chunk's key takes, but nothing reads its cells as chunks — so it opens
// degraded and serves by scan, and RebuildIndex writes it anew.
func TestIndexWrittenBeforeChunksStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "index-written-by-pr32")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, "index-written-by-pr32", dir, db)
}

// TestIndexWrittenBeforeSketchesStillServes is the hand-over from
// fix.meta version 5 on the directory the commit that introduced it wrote
// (testdata/index-written-by-pr34): its chunks carry no pair sketch, and a
// reader of version 6 would take their first postings for one, so it opens
// degraded and serves by scan, and RebuildIndex writes it anew.
func TestIndexWrittenBeforeSketchesStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "index-written-by-pr34")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, "index-written-by-pr34", dir, db)
}

// TestKeyOfWrongLengthDegrades: a version-3 B-tree under a fix.meta that
// says version 8 — a hand-edited or mismatched directory — opens healthy,
// but its keys are not keySize bytes. Verify fails ErrCorrupt on them, and
// a query whose probe meets one degrades the index and answers exactly by
// scan instead of reading σ out of the wrong bytes.
func TestKeyOfWrongLengthDegrades(t *testing.T) {
	for _, verifyFirst := range []bool{true, false} {
		dir := copyFixture(t, "index-written-by-pr25")
		path := filepath.Join(dir, "fix.meta")
		meta, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(meta, []byte("version 3\n")) || !bytes.Contains(meta, []byte("\nseq ")) {
			t.Fatalf("fix.meta is %q", meta)
		}
		copy(meta, "version 8")
		meta = bytes.Replace(meta, []byte("\nseq "), []byte("\nentries "), 1)
		meta = bytes.Replace(meta, []byte("\nclustered false\n"), []byte("\n"), 1)
		meta = bytes.Replace(meta, []byte("\nspectrumk 0\n"), []byte("\n"), 1)
		if err := os.WriteFile(path, meta, 0o644); err != nil {
			t.Fatal(err)
		}
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

// TestClusteredIndexStillServes is the hand-over from the clustered option
// on the directory the last commit that had it wrote with fixindex build
// -clustered (testdata/clustered-index-written-by-pr26): its values carry a
// pointer into a heap nothing reads any more, so it opens degraded and
// serves by scan, and RebuildIndex writes it anew without the heap.
func TestClusteredIndexStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "clustered-index-written-by-pr26")
	if _, err := os.Stat(filepath.Join(dir, "fix.clustered")); err != nil {
		t.Fatalf("the fixture has no fix.clustered: %v", err)
	}
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, "clustered-index-written-by-pr26", dir, db)
}

// TestIndexWrittenBeforeAgreementStillServes is the hand-over from
// fix.meta version 6 on the directory the commit that introduced it wrote
// (testdata/index-written-by-pr35): its chunk heads spell the posting count
// where version 7 spells the count and the depth to which the units agree,
// so it opens degraded and serves by scan, and RebuildIndex writes it anew.
func TestIndexWrittenBeforeAgreementStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "index-written-by-pr35")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, "index-written-by-pr35", dir, db)
}

// TestIndexWrittenBeforeOneSpellingStillServes is the hand-over from
// fix.meta version 7 on two directories the commit that introduced it
// wrote: testdata/index-written-by-pr38, and tails-index-written-by-pr38,
// built with spectrum tails, which lost a match at that commit. Version 8
// spells a posting one way, with no tail, so both open degraded and serve
// by scan — the second exactly again — and RebuildIndex writes them anew.
func TestIndexWrittenBeforeOneSpellingStillServes(t *testing.T) {
	for _, fixture := range []string{"index-written-by-pr38", "tails-index-written-by-pr38"} {
		t.Run(fixture, func(t *testing.T) {
			dir, db := oldFormatIndex(t, fixture)
			if err := db.RebuildIndex(); err != nil {
				t.Fatal(err)
			}
			rebuiltIndexSurvives(t, fixture, dir, db)
		})
	}
}

// TestIndexWrittenByThisFormatServes opens a database directory written by
// the commit that introduced fix.meta version 8, chunks with one spelling
// of a posting and no spectrum tails (the same 28 documents, 4 bulk-built
// at depth 6 and 24 ingested four a request, checkpointed;
// testdata/index-written-by-pr39), and uses
// it as a server would: verify, ingest enough to split its leaves,
// checkpoint, reopen. It is the anchor for the next change to the format:
// that one has to open this directory, healthy or — as above — degraded
// and exact.
func TestIndexWrittenByThisFormatServes(t *testing.T) {
	dir := copyFixture(t, "index-written-by-pr39")
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
