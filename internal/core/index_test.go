package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/fix-index/fix/internal/nok"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// bibDocs is a small bibliography collection in the spirit of the paper's
// Figure 1.
var bibDocs = []string{
	`<article><title>t1</title><author><address>a</address><email>e</email></author></article>`,
	`<article><title>t2</title><author><email>e</email><affiliation>x</affiliation></author></article>`,
	`<book><title>t3</title><author><affiliation>x</affiliation><address>a</address></author></book>`,
	`<www><title>t4</title><author><email>e</email></author></www>`,
	`<inproceedings><title>t5</title><author><email>e</email><affiliation>x</affiliation></author></inproceedings>`,
	`<article><title>t6</title></article>`,
	`<book><title>t7</title><author><phone>p</phone></author></book>`,
}

func buildCollection(t *testing.T, docs []string, opts Options) (*storage.Store, *Index) {
	t.Helper()
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	for i, d := range docs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatalf("parsing doc %d: %v", i, err)
		}
		if _, err := st.AppendTree(n); err != nil {
			t.Fatalf("appending doc %d: %v", i, err)
		}
	}
	ix, err := Build(st, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return st, ix
}

// freeze returns the served executor over ix's current state, released
// at the end of the test. A generation does not see later mutations:
// tests re-freeze after every InsertDocuments/DeleteDocuments.
func freeze(t testing.TB, ix *Index) *Generation {
	t.Helper()
	g := ix.Freeze()
	t.Cleanup(g.Unpin)
	return g
}

// query runs q on g with no trace and no limits, planned afresh, and
// checks the served path against it (checkCached): every query of the
// tests that use this helper is also a case of the plan cache's
// differential.
func query(g *Generation, q *xpath.Path) (Result, error) {
	pq, err := g.PreparePath(q, nil)
	if err != nil {
		return Result{}, err
	}
	return queryPrepared(g, pq, q)
}

// queryPrepared is query for q already planned afresh on g as pq.
func queryPrepared(g *Generation, pq *Prepared, q *xpath.Path) (Result, error) {
	res, err := g.QueryPrepared(context.Background(), pq, nil, Limits{})
	if err != nil {
		return res, err
	}
	return res, checkCached(g, q, res)
}

// prepare plans q afresh on g, failing the test on an error.
func prepare(t testing.TB, g *Generation, q *xpath.Path) *Prepared {
	t.Helper()
	pq, err := g.PreparePath(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

// bruteCount evaluates the query over every document with the bare
// navigational matcher.
func bruteCount(t *testing.T, st *storage.Store, q *xpath.Path) (docs, results int) {
	t.Helper()
	nq, err := nok.Compile(q.Tree(), st.Dict())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for rec := 0; rec < st.NumRecords(); rec++ {
		cur, err := st.Cursor(uint32(rec))
		if err != nil {
			t.Fatalf("Cursor: %v", err)
		}
		if n := nq.Count(cur, 0); n > 0 {
			docs++
			results += n
		}
	}
	return docs, results
}

func TestCollectionIndexMatchesBruteForce(t *testing.T) {
	st, ix := buildCollection(t, bibDocs, Options{})
	g := freeze(t, ix)
	queries := []string{
		"//article",
		"//article/author",
		"//article[author]/title",
		"//author[email]",
		"//author[email][affiliation]",
		"//book/author/phone",
		"//article/author/phone", // no results
		"/book/title",
		"/article[title]",
		"//nosuchlabel",
	}
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		wantDocs, wantResults := bruteCount(t, st, q)
		res, err := query(g, q)
		if err != nil {
			t.Fatalf("%s: Query: %v", qs, err)
		}
		if res.Matched != wantDocs || res.Count != wantResults {
			t.Errorf("%s: got matched=%d count=%d, want %d/%d (candidates=%d)",
				qs, res.Matched, res.Count, wantDocs, wantResults, res.Candidates)
		}
		if res.Candidates < wantDocs {
			t.Errorf("%s: false negative: %d candidates < %d matching docs", qs, res.Candidates, wantDocs)
		}
		if res.Entries != len(bibDocs) {
			t.Errorf("%s: entries = %d, want %d", qs, res.Entries, len(bibDocs))
		}
	}
}

func TestCollectionClusteredEquivalent(t *testing.T) {
	_, plain := buildCollection(t, bibDocs, Options{})
	clustered, err := plain.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	pg, cg := freeze(t, plain), clustered.Freeze()
	defer cg.Unpin()
	for _, qs := range []string{"//author[email]", "//article[author]/title", "/book/title"} {
		q := xpath.MustParse(qs)
		a, err := query(pg, q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		b, err := query(cg, q)
		if err != nil {
			t.Fatalf("%s clustered: %v", qs, err)
		}
		if a.Count != b.Count || a.Matched != b.Matched || a.Candidates != b.Candidates {
			t.Errorf("%s: clustered result %+v differs from unclustered %+v", qs, b, a)
		}
	}
}

const deepDoc = `<dblp>
<article><author>a1</author><author>a2</author><title>t<i>x</i></title><number>7</number></article>
<article><author>a3</author><title>t</title></article>
<inproceedings><author>a1</author><title>t<i>y</i></title><url>u</url></inproceedings>
<inproceedings><author>a4</author><title>t</title></inproceedings>
<proceedings><booktitle>b</booktitle><title>t<sup>s</sup><i>z</i></title></proceedings>
<book><author>a5</author><title>t</title><publisher>p</publisher></book>
</dblp>`

func buildSingleDoc(t *testing.T, doc string, opts Options) (*storage.Store, *Index) {
	t.Helper()
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	n, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := st.AppendTree(n); err != nil {
		t.Fatalf("append: %v", err)
	}
	ix, err := Build(st, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return st, ix
}

func TestDepthLimitedIndexMatchesBruteForce(t *testing.T) {
	// The document's element depth is 4, so a limit of 3 forces
	// per-element subpattern enumeration (Algorithm 1's else branch).
	st, ix := buildSingleDoc(t, deepDoc, Options{DepthLimit: 3})
	root, err := xmltree.ParseString(deepDoc)
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := root.CountElements()
	if ix.Entries() != wantEntries {
		t.Fatalf("entries = %d, want one per element = %d", ix.Entries(), wantEntries)
	}
	queries := []string{
		"//article",
		"//article[number]/author",
		"//inproceedings[url]/title",
		"//proceedings[booktitle]/title[sup][i]",
		"//title/i",
		"//article/author/title", // no results
		"/dblp/article[number]",  // root-anchored: only the document root is a candidate
		"/article/title",         // matches entries rooted at article, none of them the root
	}
	g := freeze(t, ix)
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		_, wantResults := bruteCount(t, st, q)
		res, err := query(g, q)
		if err != nil {
			t.Fatalf("%s: Query: %v", qs, err)
		}
		if res.Count != wantResults {
			t.Errorf("%s: count = %d, want %d (candidates=%d matched=%d)",
				qs, res.Count, wantResults, res.Candidates, res.Matched)
		}
	}
}

// TestDepthLimitedNestedCandidatesCountOnce: on a depth-limited index both
// c elements are candidates of //c[.//b]//b and both reach the one inner b
// through the // step, which is one match, as the scan counts it — through
// the primary heap and through a clustered copy, whose offsets start at
// each candidate.
func TestDepthLimitedNestedCandidatesCountOnce(t *testing.T) {
	st, ix := buildSingleDoc(t, `<b><c><c><b/><d/></c></c><c><b/></c></b>`, Options{DepthLimit: 3})
	clustered, err := ix.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	cg := clustered.Freeze()
	defer cg.Unpin()
	for _, qs := range []string{"//c[.//b]//b", "//c//b", "//b//c//b", "//c/c/b"} {
		q := xpath.MustParse(qs)
		_, want := bruteCount(t, st, q)
		for name, g := range map[string]*Generation{"primary": freeze(t, ix), "clustered": cg} {
			res, err := query(g, q)
			if err != nil || res.Count != want {
				t.Errorf("%s, %s: count = %d, %v; want %d (candidates=%d matched=%d)", qs, name, res.Count, err, want, res.Candidates, res.Matched)
			}
		}
	}
}

func TestDepthCoverage(t *testing.T) {
	_, ix := buildSingleDoc(t, deepDoc, Options{DepthLimit: 2})
	g := freeze(t, ix)
	q := xpath.MustParse("//proceedings[booktitle]/title[sup][i]") // depth 3
	if prepare(t, g, q).Covered() {
		t.Error("depth-3 query reported covered by depth-2 index")
	}
	if _, err := query(g, q); !errors.Is(err, ErrNotCovered) {
		t.Errorf("Query of an uncovered query = %v, want ErrNotCovered", err)
	}
	q2 := xpath.MustParse("//article/author")
	if !prepare(t, g, q2).Covered() {
		t.Error("depth-2 query reported uncovered by depth-2 index")
	}
}

func TestValueIndexEqualityPredicates(t *testing.T) {
	st, ix := buildSingleDoc(t, deepDoc, Options{DepthLimit: 4, Values: true, Beta: 8})
	queries := []string{
		`//book[publisher="p"]/title`,
		`//book[publisher="nope"]/title`,
		`//article[author="a1"]`,
		`//article[author="a3"]/title`,
	}
	g := freeze(t, ix)
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		_, wantResults := bruteCount(t, st, q)
		res, err := query(g, q)
		if err != nil {
			t.Fatalf("%s: Query: %v", qs, err)
		}
		if res.Count != wantResults {
			t.Errorf("%s: count = %d, want %d", qs, res.Count, wantResults)
		}
	}
}

func TestDescendantDecompositionQuery(t *testing.T) {
	st, ix := buildCollection(t, bibDocs, Options{})
	q := xpath.MustParse("//article[.//email]/title")
	wantDocs, wantResults := bruteCount(t, st, q)
	res, err := query(freeze(t, ix), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Matched != wantDocs || res.Count != wantResults {
		t.Errorf("got matched=%d count=%d, want %d/%d", res.Matched, res.Count, wantDocs, wantResults)
	}
}

// TestConcurrentQueriesKeepTheirCandidates runs queries with different
// candidate sets from many goroutines on one generation. Served probes
// append to pooled candidate lists that refinement reads until the query
// ends, so a list handed back too early — or to two queries at once —
// shows up here as a wrong count, and under -race as a data race.
func TestConcurrentQueriesKeepTheirCandidates(t *testing.T) {
	doc := "<r>" + strings.Repeat("<a><b/></a><c><d/><e/></c><a><f/></a>", 300) + "</r>"
	_, ix := buildSingleDoc(t, doc, Options{DepthLimit: 3})
	g := freeze(t, ix)
	type expect struct {
		q   *xpath.Path
		res Result
	}
	var want []expect
	for _, qs := range []string{"//a[b]", "//a", "//c[d]/e", "//a[f]", "/r/c", "//a[g]"} {
		q := xpath.MustParse(qs)
		res, err := query(g, q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		want = append(want, expect{q, res})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e := want[(w+i)%len(want)]
				res, err := query(g, e.q)
				if err != nil || res != e.res {
					t.Errorf("concurrent %s = %+v, %v; alone it was %+v", e.q, res, err, e.res)
					return
				}
				ok, err := g.ExistsPrepared(context.Background(), prepare(t, g, e.q))
				if err != nil || ok != (e.res.Count > 0) {
					t.Errorf("concurrent Exists(%s) = %v, %v; count alone was %d", e.q, ok, err, e.res.Count)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
