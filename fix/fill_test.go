package fix

import (
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

// indexMatchesScan requires a verified index that answers the paper's
// XMark queries (Table 2 and Figure 6) as a scan does.
func indexMatchesScan(t *testing.T, db *DB, when string) {
	t.Helper()
	if err := db.VerifyIndex(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for _, q := range []string{
		"//category/description[parlist]/parlist/listitem/text",
		"//closed_auction/annotation/description/text",
		"//open_auction[seller]/annotation/description/text",
		"//item/mailbox/mail/text/emph/keyword",
		"//description/parlist/listitem",
		"//item[name]/mailbox/mail[to]/text[bold]/emph/bold",
		"//item[payment][quantity][shipping][mailbox/mail/text]/description/parlist",
	} {
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
// requests — and requires the leaves the inserts split to fill: at most 13.4
// index bytes per entry (this run ends at 12.8; cut at mid, at 14.0, so the
// gate sits between the two rather than at 1.1 × 12.8; with 9-byte values
// the run ended at 20.3), with the index verified and agreeing with a scan
// on the paper's XMark queries before and after a checkpoint and a reopen.
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
		if perEntry > 13.4 {
			t.Errorf("%s: %.1f index bytes per entry, want at most 13.4", when, perEntry)
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

// oldFormatIndex opens a copy of testdata/<fixture> — 28 XMark entity
// documents, 4 bulk-built at depth 6 and 24 ingested, checkpointed by an
// earlier commit in a format this one does not read — and requires what an
// upgrade in place meets: Open succeeds, the index is degraded with a
// health error that wraps ErrCorrupt, names the format (degradedBy) and
// says to rebuild, and every query is answered exactly, by scan.
//
// index-written-by-pr20 and index-written-by-pr23 are under fix.meta
// version 2, whose values spelled a pointer as a flag byte and a big-endian
// u64. index-written-by-pr23 is old in its values only.
// index-written-by-pr20 is also in page format FIXBT002, but Open reads
// fix.meta before it opens fix.btree and keeps the first health problem
// only, so the meta version is what its health names: the remedy either
// would name is the same rebuild. clustered-index-written-by-pr26 is in the
// current format, built by the last commit with the clustered option
// (fixindex build -depth 6 -clustered): its values carry a second pointer,
// and a fix.clustered heap lies beside its B-tree.
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
	if db.NumDocuments() != 28 || !db.HasIndex() {
		t.Fatalf("fixture holds %d documents (index: %t), want 28 and an index", db.NumDocuments(), db.HasIndex())
	}
	for _, q := range []string{"//item/mailbox/mail/text/emph/keyword", "//description/parlist/listitem", "//open_auction[seller]/annotation/description/text"} {
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
	"index-written-by-pr20":           {"version 2", "writes 3"},
	"index-written-by-pr23":           {"version 2", "writes 3"},
	"clustered-index-written-by-pr26": {"clustered"},
}

// rebuiltIndexSurvives requires the healthy 528-entry index a rebuild of
// an old-format fixture leaves, with no fix.clustered heap beside it,
// before and after a checkpoint and a reopen.
func rebuiltIndexSurvives(t *testing.T, dir string, db *DB) {
	t.Helper()
	if err := db.IndexHealth(); err != nil || db.IndexEntries() != 528 {
		t.Fatalf("after the rebuild: health %v, %d entries, want a healthy index of 528", err, db.IndexEntries())
	}
	if _, err := os.Stat(filepath.Join(dir, "fix.clustered")); !os.IsNotExist(err) {
		t.Fatalf("after the rebuild fix.clustered is still there (%v)", err)
	}
	indexMatchesScan(t, db, "after the rebuild")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
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
	rebuiltIndexSurvives(t, dir, db)
}

// TestIndexWrittenBeforeUvarintValuesStillServes is the hand-over from
// fix.meta version 2 on the directory the commit that introduced FIXBT003
// wrote (testdata/index-written-by-pr23): its pages read, but its values
// are in the flag-byte spelling nothing reads any more, so it opens degraded
// and serves by scan, and RebuildIndex writes it anew in version 3.
func TestIndexWrittenBeforeUvarintValuesStillServes(t *testing.T) {
	dir, db := oldFormatIndex(t, "index-written-by-pr23")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuiltIndexSurvives(t, dir, db)
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
	rebuiltIndexSurvives(t, dir, db)
}

// TestIndexWrittenByThisFormatServes opens a database directory written by
// the commit that introduced fix.meta version 3, the values of two uvarints
// a pointer (the same 28 documents, 4 bulk-built at depth 6 and 24 ingested,
// checkpointed; testdata/index-written-by-pr25), and uses it as a server
// would: verify, ingest enough to split its leaves, checkpoint, reopen. It
// is the anchor for the next change to the format: that one has to open
// this directory, healthy or — as above — degraded and exact.
func TestIndexWrittenByThisFormatServes(t *testing.T) {
	dir := copyFixture(t, "index-written-by-pr25")
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
