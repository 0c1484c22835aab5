package fix

import (
	"path/filepath"
	"testing"
)

var docs = []string{
	`<article><title>a</title><author><email>e1</email></author></article>`,
	`<article><title>b</title><author><phone>p1</phone><email>e2</email></author></article>`,
	`<book><title>c</title><author><address>x</address></author></book>`,
	`<article><title>d</title></article>`,
}

func newTestDB(t *testing.T, opts IndexOptions) *DB {
	t.Helper()
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(opts); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryAndExists(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	res, err := db.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Errorf("count = %d, want 2", res.Count)
	}
	if res.Entries != len(docs) {
		t.Errorf("entries = %d, want %d", res.Entries, len(docs))
	}
	ok, err := db.Exists("//author[phone]")
	if err != nil || !ok {
		t.Errorf("Exists(//author[phone]) = %v, %v; want true", ok, err)
	}
	ok, err = db.Exists("//book/author/email")
	if err != nil || ok {
		t.Errorf("Exists(//book/author/email) = %v, %v; want false", ok, err)
	}
}

func TestQueryDocuments(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	ids, err := db.QueryDocuments("//author[email]")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("ids = %v, want [0 1]", ids)
	}
}

func TestMetrics(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	m, err := db.Effectiveness("//author[email]")
	if err != nil {
		t.Fatal(err)
	}
	if m.Selectivity != 0.5 {
		t.Errorf("selectivity = %v, want 0.5", m.Selectivity)
	}
	if m.PruningPower < 0 || m.PruningPower > m.Selectivity {
		t.Errorf("pruning power %v out of range [0, %v]", m.PruningPower, m.Selectivity)
	}
}

func TestUnindexedFallback(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("//article/title")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Errorf("count = %d, want 3", res.Count)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	s, err := db.Document(0)
	if err != nil {
		t.Fatal(err)
	}
	if s != docs[0] {
		t.Errorf("document 0 = %q, want %q", s, docs[0])
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	dbdir := filepath.Join(dir, "db")
	db, err := Create(dbdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{DepthLimit: 3}); err != nil {
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

	re, err := Open(dbdir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.HasIndex() {
		t.Fatal("reopened database lost its index")
	}
	got, err := re.Query("//article[author]/title")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reopened query = %+v, want %+v", got, want)
	}
	if re.NumDocuments() != len(docs) {
		t.Errorf("reopened documents = %d, want %d", re.NumDocuments(), len(docs))
	}
}

func TestValueIndexFacade(t *testing.T) {
	db := newTestDB(t, IndexOptions{Values: true, Beta: 4})
	res, err := db.Query(`//author[email="e2"]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Errorf("count = %d, want 1", res.Count)
	}
}

func TestAddDocumentAfterIndex(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	id, err := db.AddDocumentString(`<article><title>late</title><author><email>z</email></author></article>`)
	if err != nil {
		t.Fatal(err)
	}
	if id != uint32(len(docs)) {
		t.Errorf("id = %d", id)
	}
	res, err := db.Query("//author[email]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Errorf("count after incremental add = %d, want 3", res.Count)
	}
	if res.Entries != len(docs)+1 {
		t.Errorf("entries = %d, want %d", res.Entries, len(docs)+1)
	}
}

func TestErrorPaths(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddDocumentString("<unclosed>"); err == nil {
		t.Error("malformed document accepted")
	}
	if err := db.Save(); err == nil {
		t.Error("Save on in-memory database succeeded")
	}
	if _, err := db.Effectiveness("//a"); err == nil {
		t.Error("Metrics without an index succeeded")
	}
	if _, err := db.Query("not a path"); err == nil {
		t.Error("malformed query accepted")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open on empty dir succeeded")
	}
	if _, err := db.Document(99); err == nil {
		t.Error("Document out of range succeeded")
	}
}

func TestUncoveredQueryFallsBack(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddDocumentString(`<a><b><c><d><e/></d></c></b></a>`); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(IndexOptions{DepthLimit: 2}); err != nil {
		t.Fatal(err)
	}
	// Depth-4 query exceeds the limit; the facade must still answer it
	// via the scan fallback.
	res, err := db.Query("//b/c/d/e")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Errorf("fallback count = %d, want 1", res.Count)
	}
	if res.Entries != 0 {
		t.Errorf("fallback should report no pruning stats, got %+v", res)
	}
	ok, err := db.Exists("//b/c/d/e")
	if err != nil || !ok {
		t.Errorf("Exists fallback = %v, %v", ok, err)
	}
	ids, err := db.QueryDocuments("//b/c/d/e")
	if err != nil || len(ids) != 1 {
		t.Errorf("QueryDocuments fallback = %v, %v", ids, err)
	}
}
