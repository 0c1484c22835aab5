package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// TestAgreement pins the agreement of two units on small trees: labels,
// child counts and child order count, text does not, and two trees equal
// throughout agree as deeply as the cap allows.
func TestAgreement(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"<a/>", "<a/>", maxAlike},
		{"<a><b><c/></b></a>", "<a><b><c/></b></a>", maxAlike},
		{"<a><b>x</b></a>", "<a><b>y</b>z</a>", maxAlike},
		{"<a><b/></a>", "<a/>", 0},
		{"<a><b/><b/></a>", "<a><b/></a>", 0},
		{"<a><b/><c/></a>", "<a><c/><b/></a>", 0},
		{"<a><b><c/></b></a>", "<a><b><d/></b></a>", 1},
		{"<a><b><c/></b></a>", "<a><b><c/><c/></b></a>", 1},
		{"<a><b><c/></b><b/></a>", "<a><b><c/></b><b><c/></b></a>", 1},
		{"<a><b><c><d/></c></b></a>", "<a><b><c/></b></a>", 2},
	} {
		u := newUnitReader(memStoreFromDocs(t, []string{tc.a, tc.b}), scanUnitBytes)
		for lim := 0; lim <= maxAlike; lim++ {
			got, err := u.agree(storage.MakePointer(0, 0), storage.MakePointer(1, 0), lim)
			if err != nil || got != min(tc.want, lim) {
				t.Errorf("%s and %s to at most %d: %d, %v; want %d", tc.a, tc.b, lim, got, err, min(tc.want, lim))
			}
		}
	}
}

// checkChunkAgreement requires every chunk's stored agreement to be at most
// the least agreement of its units with its first, recomputed from the
// heap, and exactly that when tight. It returns how many chunks agree to
// some depth below maxAlike, so a caller can see the check had something to
// hold.
func checkChunkAgreement(t *testing.T, ix *Index, tight bool, what string) (lowered int) {
	t.Helper()
	u := newUnitReader(ix.store, scanUnitBytes)
	chunks := 0
	var ptrs []storage.Pointer
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		r := openPostings(keyPointer(k), v)
		for ptrs = ptrs[:0]; r.next(); {
			ptrs = append(ptrs, r.ptr)
		}
		if !r.ok() {
			t.Fatalf("%s: chunk %x does not decode", what, k)
		}
		want := maxAlike
		for _, p := range ptrs[1:] {
			d, err := u.agree(ptrs[0], p, maxAlike)
			if err != nil {
				t.Fatal(err)
			}
			want = min(want, d)
		}
		if r.alike > want || tight && r.alike != want {
			t.Fatalf("%s: chunk at %v of %d postings says its units agree to depth %d, recomputed %d", what, ptrs[0], len(ptrs), r.alike, want)
		}
		if r.alike < maxAlike {
			lowered++
		}
		chunks++
		return true
	})
	if err != nil || chunks == 0 {
		t.Fatalf("%s: %d chunks, %v", what, chunks, err)
	}
	return lowered
}

// TestChunkAgreementHolds builds an index over half of a stream of XMark
// entity documents, appends the rest four a request, deletes every third
// record and rebuilds: after the build, the appends and the rebuild every
// chunk's agreement is the one recomputed from the heap — so an append
// leaves what a bulk build writes — and after the deletes it is at most
// that. Verify agrees each time. Depth-limited and whole-document indexes,
// with value hashing off and on.
func TestChunkAgreementHolds(t *testing.T) {
	docs := xmarkEntities(datagen.Config{Seed: 5, Scale: 0.02})
	lowered := 0
	for _, opts := range []Options{{DepthLimit: 3}, {DepthLimit: 3, Values: true}, {}, {Values: true}} {
		t.Run(fmt.Sprintf("depth %d, values %t", opts.DepthLimit, opts.Values), func(t *testing.T) {
			st := storeOf(t, docs[:len(docs)/2])
			for _, d := range docs { // a value index takes no new element label
				d.Walk(func(n *xmltree.Node) bool {
					if !n.IsText() {
						st.Dict().ID(n.Label)
					}
					return true
				})
			}
			ix, err := Build(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			verified := func(what string) {
				t.Helper()
				if err := ix.Verify(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			checkChunkAgreement(t, ix, true, "bulk build")
			verified("bulk build")
			var recs []uint32
			for _, d := range docs[len(docs)/2:] {
				rec, err := st.AppendTree(d)
				if err != nil {
					t.Fatal(err)
				}
				if recs = append(recs, rec); len(recs) == 4 {
					if err := ix.InsertDocuments(recs...); err != nil {
						t.Fatal(err)
					}
					recs = recs[:0]
				}
			}
			if err := ix.InsertDocuments(recs...); err != nil {
				t.Fatal(err)
			}
			lowered += checkChunkAgreement(t, ix, true, "after the appends")
			verified("after the appends")
			var doomed []uint32
			for rec := 0; rec < st.NumRecords(); rec += 3 {
				doomed = append(doomed, uint32(rec))
			}
			if _, err := ix.DeleteDocuments(doomed); err != nil {
				t.Fatal(err)
			}
			checkChunkAgreement(t, ix, false, "after the deletes")
			verified("after the deletes")
			if ix, err = Build(st, opts); err != nil {
				t.Fatal(err)
			}
			checkChunkAgreement(t, ix, true, "after the rebuild")
			verified("after the rebuild")
		})
	}
	if lowered == 0 {
		t.Error("after the appends every chunk of every index agrees throughout: the check held nothing")
	}
}

// TestVerifyCatchesOverstatedAgreement: a chunk that says its units agree
// deeper than they do is ErrCorrupt to Verify, and one that says less is
// not; VerifyStructure does not look.
func TestVerifyCatchesOverstatedAgreement(t *testing.T) {
	st := memStoreFromDocs(t, []string{"<r><a><b/><c/></a><a><c/><b/></a></r>"})
	ix, err := Build(st, Options{DepthLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	var key, val []byte
	if err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		if r := openPostings(keyPointer(k), v); r.count() == 2 {
			key, val = append([]byte(nil), k...), append([]byte(nil), v...)
			return false
		}
		return true
	}); err != nil || key == nil {
		t.Fatalf("no chunk of the two <a> units (%v)", err)
	}
	var c chunk
	if !c.load(keyPointer(key), val) || c.alike != 0 {
		t.Fatalf("the two <a> units agree to depth %d, want 0", c.alike)
	}
	c.alike = 1
	if err := ix.bt.Put(key, c.appendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if err := ix.verify(true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify of an overstated agreement = %v, want ErrCorrupt", err)
	}
	if err := ix.verify(false); err != nil {
		t.Fatalf("VerifyStructure, which recomputes no agreement, = %v", err)
	}
	c.alike = 0
	if err := ix.bt.Put(key, c.appendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if err := ix.verify(true); err != nil {
		t.Fatalf("Verify of the agreement as built = %v", err)
	}
}

// TestSharedMatchesXMarkRead is the count gate of chunk agreement: over the
// benchmark's 21 xmark_read texts on a depth-6 index of a small XMark
// document (seed 1, scale 0.05), every answer is the scan's and the
// matcher runs on at most 65 % of the candidates; the rest take the match
// of their chunk's first unit. Measured: 835 evaluations of 1 418
// candidates (58.9 %), so the bound leaves six points of margin. A build
// that stopped writing agreements fails here — with none every candidate
// is matched, with too deep ones an answer changes — and no timing is
// involved.
func TestSharedMatchesXMarkRead(t *testing.T) {
	st := storeOf(t, []*xmltree.Node{datagen.XMark(datagen.Config{Seed: 1, Scale: 0.05})})
	ix, err := Build(st, Options{DepthLimit: 6})
	if err != nil {
		t.Fatal(err)
	}
	g := freeze(t, ix)
	ctx := context.Background()
	cands, shared := 0, 0
	for _, text := range xmarkReadTexts {
		q := xpath.MustParse(text)
		res, err := query(g, q)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := g.ScanCount(ctx, q.Tree(), nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != scan.Count {
			t.Errorf("%s: %d results, the scan %d", text, res.Count, scan.Count)
		}
		cands += res.Candidates
		shared += res.SharedMatches
	}
	if evals := cands - shared; 100*evals > 65*cands {
		t.Errorf("the matcher ran on %d of %d candidates, want at most 65 %%", evals, cands)
	}
}

// TestLargeRecordsAreReadOnce: the units of a record larger than a unit
// reader's budget are compared without reading the record again, also
// when other records are read in between, and an append of documents over
// the append budget reads no record of its own request and each older one
// at most once.
func TestLargeRecordsAreReadOnce(t *testing.T) {
	big := datagen.XMark(datagen.Config{Seed: 3, Scale: 0.15})
	st := storeOf(t, []*xmltree.Node{big, xmltree.Elem("site", xmltree.Elem("people"))})
	u := newUnitReader(st, 1<<10)
	cur, err := st.Cursor(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Buf) <= u.budget {
		t.Fatalf("record 0 is %d bytes, not over the budget", len(cur.Buf))
	}
	var ptrs []storage.Pointer
	for r := xmltree.Ref(0); int(r) < len(cur.Buf) && len(ptrs) < 200; {
		_, isText, body, end := cur.Span(r)
		if isText {
			r = end
			continue
		}
		ptrs = append(ptrs, storage.MakePointer(0, uint32(r)))
		r = body
	}
	for i := 1; i < len(ptrs); i++ {
		if _, err := u.agree(ptrs[i-1], ptrs[i], maxAlike); err != nil {
			t.Fatal(err)
		}
		if _, err := u.agree(ptrs[i], storage.MakePointer(1, 0), maxAlike); err != nil {
			t.Fatal(err)
		}
	}
	if u.reads != 2 {
		t.Errorf("%d comparisons within a record over the budget read %d records, want 2", 2*(len(ptrs)-1), u.reads)
	}

	// Appends at depth 3: a base of small documents, then two requests of
	// a large document and a small one each.
	st = storeOf(t, []*xmltree.Node{
		datagen.XMark(datagen.Config{Seed: 1, Scale: 0.01}),
		datagen.XMark(datagen.Config{Seed: 2, Scale: 0.01}),
	})
	ix, err := Build(st, Options{DepthLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := st.NumRecords()
	for seed := int64(4); seed < 6; seed++ {
		var recs []uint32
		for _, d := range []*xmltree.Node{
			datagen.XMark(datagen.Config{Seed: seed, Scale: 0.15}),
			datagen.XMark(datagen.Config{Seed: 10 + seed, Scale: 0.01}),
		} {
			rec, err := st.AppendTree(d)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		if buf, err := st.Record(recs[0]); err != nil || len(buf) <= appendUnitBytes {
			t.Fatalf("record %d is %d bytes (%v), not over the append budget", recs[0], len(buf), err)
		}
		if err := ix.InsertDocuments(recs...); err != nil {
			t.Fatal(err)
		}
	}
	if ix.units.reads > base {
		t.Errorf("two appends of a document over the budget read %d records, want at most the %d bulk-built ones", ix.units.reads, base)
	}
	checkChunkAgreement(t, ix, true, "after the appends")
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}
