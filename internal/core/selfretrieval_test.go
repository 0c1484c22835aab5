package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// spell writes the twig that names n's whole element structure down to
// depth levels: n's label followed by one predicate per distinct child
// twig. A document matches the spelling of its own root, an element the
// spelling of its own subtree.
func spell(n *xmltree.Node, depth int) string {
	if depth == 1 {
		return n.Label
	}
	seen := map[string]bool{}
	var preds []string
	for _, c := range n.Children {
		if c.IsText() {
			continue
		}
		if p := "[" + spell(c, depth-1) + "]"; !seen[p] {
			seen[p] = true
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	return n.Label + strings.Join(preds, "")
}

// checkSelfRetrieval runs every twig (twig → how many documents or
// elements it spells) against ix and against a scan: the index must lose
// none of the scan's results, and the scan must find at least the elements
// the twig was spelled from. Twigs past the query limits — the spelling of
// a large document's root — are skipped; at least one must remain.
func checkSelfRetrieval(t *testing.T, what string, ix *Index, twigs map[string]int) {
	t.Helper()
	g := freeze(t, ix)
	checked := 0
	for twig, spelled := range twigs {
		q, err := xpath.Parse(twig)
		if errors.Is(err, xpath.ErrLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", what, twig, err)
		}
		checked++
		got, err := query(g, q)
		if err != nil {
			t.Fatalf("%s: %s: %v", what, twig, err)
		}
		want, err := g.ScanCount(context.Background(), q.Tree(), nil, Limits{})
		if err != nil {
			t.Fatalf("%s: %s (scan): %v", what, twig, err)
		}
		if want.Count < spelled {
			t.Fatalf("%s: %s spells %d elements but a scan finds %d", what, twig, spelled, want.Count)
		}
		if got.Fallback || got.Count != want.Count {
			t.Errorf("%s: %s: index %d of %d candidates (fallback %t), scan %d: the index does not return what the twig was spelled from", what, twig, got.Count, got.Candidates, got.Fallback, want.Count)
		}
	}
	if checked == 0 {
		t.Errorf("%s: none of %d twigs is within the query limits", what, len(twigs))
	}
}

// TestEqualSpectraOneUlpApart is the reproduction of DESIGN.md "Failure
// 3", minimised to two documents: the twig below names every child of the
// second one, so the pattern graph and the document's bisimulation graph
// are the same graph with its vertices numbered in a different order, the
// two σmax are equal in exact arithmetic and one ulp apart as computed —
// and an exact comparison prunes the document. The first document only
// fixes the order in which label pairs are first met, which decides the
// way the last bit rounds.
func TestEqualSpectraOneUlpApart(t *testing.T) {
	_, ix := buildCollection(t, []string{
		`<book><author/><title/><publisher/><year/></book>`,
		`<inproceedings><author/><title><i/></title><booktitle/><year/><pages/><url/><ee/></inproceedings>`,
	}, Options{})
	const twig = "/inproceedings[author][title[i]][booktitle][year][pages][url][ee]"
	got, err := query(freeze(t, ix), xpath.MustParse(twig))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 1 {
		t.Errorf("%s: index returns %d results from %d candidates, want the document the twig spells", twig, got.Count, got.Candidates)
	}
}

// TestSelfRetrieval is the property the reproduction is an instance of:
// for every document of every datagen dataset at small scale the twig that
// spells out the document's whole structure returns it, and on the
// depth-limited indexes the depth-L spelling of every element's subtree
// returns that element — the case in which query and entry have equal
// spectra, so anything less than a tolerant comparison loses them to
// rounding.
func TestSelfRetrieval(t *testing.T) {
	// Collections: every record of a DBLP bibliography, every TCMD
	// article, one document each.
	collections := map[string][]*xmltree.Node{}
	for seed := int64(1); seed <= 5; seed++ {
		collections[fmt.Sprintf("dblp records, seed %d", seed)] = datagen.DBLP(datagen.Config{Seed: seed, Scale: 0.1}).Children
	}
	tcmd, err := datagen.Generate(datagen.TCMDDataset, datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for rec := 0; rec < tcmd.NumRecords(); rec++ {
		cur, err := tcmd.Cursor(uint32(rec))
		if err != nil {
			t.Fatal(err)
		}
		n, err := cur.Decode(0)
		if err != nil {
			t.Fatal(err)
		}
		collections["tcmd"] = append(collections["tcmd"], n)
	}
	for what, docs := range collections {
		st := storeOf(t, docs)
		ix, err := Build(st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		twigs := map[string]int{}
		for _, d := range docs {
			twigs["/"+spell(d, d.Depth())]++
		}
		checkSelfRetrieval(t, what, ix, twigs)
	}

	// Depth-limited indexes over one large document.
	const limit = 4
	for what, doc := range map[string]*xmltree.Node{
		"dblp":     datagen.DBLP(datagen.Config{Seed: 1, Scale: 0.01}),
		"xmark":    datagen.XMark(datagen.Config{Seed: 1, Scale: 0.01}),
		"treebank": datagen.Treebank(datagen.Config{Seed: 1, Scale: 0.01}),
	} {
		ix, err := Build(storeOf(t, []*xmltree.Node{doc}), Options{DepthLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		twigs := map[string]int{}
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			if n.IsText() {
				return
			}
			twigs["//"+spell(n, limit)]++
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(doc)
		checkSelfRetrieval(t, fmt.Sprintf("%s, depth limit %d", what, limit), ix, twigs)
	}
}

// storeOf appends docs to a fresh in-memory store, one record each.
func storeOf(t *testing.T, docs []*xmltree.Node) *storage.Store {
	t.Helper()
	st, err := storage.NewStore(storage.NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := st.AppendTree(d); err != nil {
			t.Fatal(err)
		}
	}
	return st
}
