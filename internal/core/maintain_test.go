package core

import (
	"testing"

	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

func TestInsertDocumentCollection(t *testing.T) {
	st, ix := buildCollection(t, bibDocs, Options{})
	n, err := xmltree.ParseString(`<article><title>new</title><author><phone>p</phone><email>e</email></author></article>`)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.AppendTree(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDocument(rec); err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != len(bibDocs)+1 {
		t.Fatalf("entries = %d, want %d", ix.Entries(), len(bibDocs)+1)
	}
	q := xpath.MustParse("//author[phone][email]")
	wantDocs, wantCount := bruteCount(t, st, q)
	res, err := query(freeze(t, ix), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != wantDocs || res.Count != wantCount {
		t.Errorf("after insert: got %d/%d, want %d/%d", res.Matched, res.Count, wantDocs, wantCount)
	}
}

func TestInsertDocumentDepthLimited(t *testing.T) {
	st, ix := buildSingleDoc(t, deepDoc, Options{DepthLimit: 3})
	n, err := xmltree.ParseString(`<dblp><inproceedings><author>zz</author><title>t<i>q</i></title><url>u</url></inproceedings></dblp>`)
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Entries()
	rec, err := st.AppendTree(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDocument(rec); err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != before+n.CountElements() {
		t.Fatalf("entries = %d, want %d", ix.Entries(), before+n.CountElements())
	}
	q := xpath.MustParse("//inproceedings[url]/title/i")
	_, wantCount := bruteCount(t, st, q)
	res, err := query(freeze(t, ix), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != wantCount {
		t.Errorf("after insert: count = %d, want %d", res.Count, wantCount)
	}
}

func TestDeleteDocument(t *testing.T) {
	st, ix := buildCollection(t, bibDocs, Options{})
	q := xpath.MustParse("//author[email]")
	before, err := query(freeze(t, ix), q)
	if err != nil {
		t.Fatal(err)
	}
	// Document 0 matches; remove it from the index.
	removed, err := ix.DeleteDocument(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d entries, want 1", removed)
	}
	if ix.Entries() != len(bibDocs)-1 {
		t.Fatalf("entries = %d", ix.Entries())
	}
	after, err := query(freeze(t, ix), q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Matched != before.Matched-1 {
		t.Errorf("matched = %d, want %d", after.Matched, before.Matched-1)
	}
	_ = st
}

// TestDeleteDocumentsOnePass: one call naming several records — one scan
// of the index — removes what a DeleteDocument per record removes, on a
// depth-limited index where every element of a document has its own
// entry. A record named twice, or one the index holds nothing of, is fine.
// Records past 127 take two-byte uvarints, and 257's begins with the byte
// 129's does, which stays.
func TestDeleteDocumentsOnePass(t *testing.T) {
	var docs []string
	for i := 0; i < 300; i++ {
		docs = append(docs, bibDocs[i%len(bibDocs)])
	}
	_, one := buildCollection(t, docs, Options{DepthLimit: 3})
	_, all := buildCollection(t, docs, Options{DepthLimit: 3})
	total := all.Entries()
	perRecord := 0
	doomed := map[uint32]bool{0: true, 2: true, 130: true, 257: true}
	for rec := range doomed {
		n, err := one.DeleteDocument(rec)
		if err != nil {
			t.Fatal(err)
		}
		perRecord += n
	}
	removed, err := all.DeleteDocuments([]uint32{2, 257, 0, 2, 999, 130})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || removed != perRecord || all.Entries() != total-removed {
		t.Fatalf("one pass removed %d of %d entries (%d left), one call per record %d", removed, total, all.Entries(), perRecord)
	}
	entries := func(ix *Index) (out []string) {
		err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
			ev, _ := decodeValue(v)
			if rec := ev.primary.Rec(); doomed[rec] {
				t.Errorf("an entry of deleted record %d survived", rec)
			}
			out = append(out, string(k)+string(v))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := entries(one), entries(all)
	if len(a) != len(b) {
		t.Fatalf("one pass leaves %d entries, one call per record %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs between one pass and one call per record", i)
		}
	}
}

func TestInsertThenDeleteRoundTrip(t *testing.T) {
	st, ix := buildCollection(t, bibDocs, Options{})
	n, err := xmltree.ParseString(`<www><title>x</title><author><email>e</email></author></www>`)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.AppendTree(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDocument(rec); err != nil {
		t.Fatal(err)
	}
	removed, err := ix.DeleteDocument(rec)
	if err != nil || removed != 1 {
		t.Fatalf("removed %d, err %v", removed, err)
	}
	if ix.Entries() != len(bibDocs) {
		t.Errorf("entries = %d, want %d", ix.Entries(), len(bibDocs))
	}
}
