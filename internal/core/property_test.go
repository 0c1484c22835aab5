package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// These tests check the index's central guarantee on randomized inputs:
// no false negatives (Theorems 2, 3, 5). Every document/element that the
// bare navigational matcher finds must survive the feature filter.

func randomPropDoc(rng *rand.Rand, labels []string, depth int) *xmltree.Node {
	var build func(d int) *xmltree.Node
	build = func(d int) *xmltree.Node {
		n := xmltree.Elem(labels[rng.Intn(len(labels))])
		if d <= 0 {
			return n
		}
		kids := rng.Intn(4)
		for i := 0; i < kids; i++ {
			n.Children = append(n.Children, build(d-rng.Intn(2)-1))
		}
		return n
	}
	return build(depth)
}

func randomPropQuery(rng *rand.Rand, labels []string, depth, branch int) string {
	var build func(d int) string
	build = func(d int) string {
		s := labels[rng.Intn(len(labels))]
		if d <= 1 {
			return s
		}
		for i := rng.Intn(branch); i > 0; i-- {
			s += "[" + build(d-1) + "]"
		}
		return s
	}
	return "//" + build(depth)
}

func TestNoFalseNegativesCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	labels := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 10; trial++ {
		dict := xmltree.NewDict()
		st, err := storage.NewStore(storage.NewMemFile(), dict)
		if err != nil {
			t.Fatal(err)
		}
		const numDocs = 40
		for i := 0; i < numDocs; i++ {
			if _, err := st.AppendTree(randomPropDoc(rng, labels, 4)); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Build(st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := freeze(t, ix)
		for qn := 0; qn < 30; qn++ {
			qs := randomPropQuery(rng, labels, 3, 3)
			q := xpath.MustParse(qs)
			wantDocs, wantCount := bruteCount(t, st, q)
			res, err := query(g, q)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, qs, err)
			}
			if res.Matched != wantDocs || res.Count != wantCount {
				t.Fatalf("trial %d %s: got %d/%d, want %d/%d",
					trial, qs, res.Matched, res.Count, wantDocs, wantCount)
			}
		}
	}
}

func TestNoFalseNegativesDepthLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 6; trial++ {
		dict := xmltree.NewDict()
		st, err := storage.NewStore(storage.NewMemFile(), dict)
		if err != nil {
			t.Fatal(err)
		}
		// One larger document.
		root := xmltree.Elem("root")
		for i := 0; i < 30; i++ {
			root.Children = append(root.Children, randomPropDoc(rng, labels, 5))
		}
		if _, err := st.AppendTree(root); err != nil {
			t.Fatal(err)
		}
		for _, depthLimit := range []int{3, 4} {
			ix, err := Build(st, Options{DepthLimit: depthLimit})
			if err != nil {
				t.Fatal(err)
			}
			g := freeze(t, ix)
			for qn := 0; qn < 25; qn++ {
				qs := randomPropQuery(rng, labels, depthLimit, 3)
				q := xpath.MustParse(qs)
				pq := prepare(t, g, q)
				if !pq.Covered() {
					continue
				}
				_, wantCount := bruteCount(t, st, q)
				res, err := queryPrepared(g, pq, q)
				if err != nil {
					t.Fatalf("trial %d L=%d %s: %v", trial, depthLimit, qs, err)
				}
				if res.Count != wantCount {
					t.Fatalf("trial %d L=%d %s: got %d, want %d (cand=%d)",
						trial, depthLimit, qs, res.Count, wantCount, res.Candidates)
				}
			}
		}
	}
}

func TestNoFalseNegativesWithValues(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	labels := []string{"a", "b", "c"}
	values := []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.Elem("root")
	for i := 0; i < 50; i++ {
		d := randomPropDoc(rng, labels, 3)
		// Sprinkle text leaves.
		d.Walk(func(n *xmltree.Node) bool {
			if !n.IsText() && len(n.Children) == 0 && rng.Intn(2) == 0 {
				n.Children = append(n.Children, xmltree.Text(values[rng.Intn(len(values))]))
			}
			return true
		})
		root.Children = append(root.Children, d)
	}
	if _, err := st.AppendTree(root); err != nil {
		t.Fatal(err)
	}
	// A small beta forces hash collisions; completeness must survive
	// them (collisions only cost false positives).
	for _, beta := range []uint32{2, 16} {
		ix, err := Build(st, Options{DepthLimit: 4, Values: true, Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		g := freeze(t, ix)
		for qn := 0; qn < 40; qn++ {
			label := labels[rng.Intn(len(labels))]
			val := values[rng.Intn(len(values))]
			qs := fmt.Sprintf(`//%s[%s=%q]`, label, labels[rng.Intn(len(labels))], val)
			q := xpath.MustParse(qs)
			_, wantCount := bruteCount(t, st, q)
			res, err := query(g, q)
			if err != nil {
				t.Fatalf("beta %d %s: %v", beta, qs, err)
			}
			if res.Count != wantCount {
				t.Fatalf("beta %d %s: got %d, want %d", beta, qs, res.Count, wantCount)
			}
		}
	}
}

func TestOversizeFallbackKeepsCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	labels := []string{"a", "b", "c", "d", "e", "f"}
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.Elem("root")
	for i := 0; i < 20; i++ {
		root.Children = append(root.Children, randomPropDoc(rng, labels, 5))
	}
	if _, err := st.AppendTree(root); err != nil {
		t.Fatal(err)
	}
	// A tiny edge budget forces many oversize entries.
	ix, err := Build(st, Options{DepthLimit: 4, EdgeBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.OversizeEntries() == 0 {
		t.Fatal("expected oversize entries with budget 3")
	}
	g := freeze(t, ix)
	for qn := 0; qn < 30; qn++ {
		qs := randomPropQuery(rng, labels, 3, 2)
		q := xpath.MustParse(qs)
		_, wantCount := bruteCount(t, st, q)
		res, err := query(g, q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if res.Count != wantCount {
			t.Fatalf("%s: got %d, want %d", qs, res.Count, wantCount)
		}
	}
}

func TestNoRootLabelStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	labels := []string{"a", "b", "c"}
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.Elem("root")
	for i := 0; i < 25; i++ {
		root.Children = append(root.Children, randomPropDoc(rng, labels, 4))
	}
	if _, err := st.AppendTree(root); err != nil {
		t.Fatal(err)
	}
	with, err := Build(st, Options{DepthLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Build(st, Options{DepthLimit: 4, NoRootLabel: true})
	if err != nil {
		t.Fatal(err)
	}
	withGen := freeze(t, with)
	withoutGen := freeze(t, without)
	for qn := 0; qn < 25; qn++ {
		qs := randomPropQuery(rng, labels, 3, 3)
		q := xpath.MustParse(qs)
		a, err := query(withGen, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := query(withoutGen, q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count != b.Count {
			t.Fatalf("%s: with=%d without=%d", qs, a.Count, b.Count)
		}
		if b.Candidates < a.Candidates {
			t.Errorf("%s: label pruning increased candidates (%d -> %d)", qs, a.Candidates, b.Candidates)
		}
	}
}

// TestClusteredGenerationMatchesPrimary runs 200 seeded random queries
// through the offline executor of an index, once reading the primary heap
// and once reading its clustered copy through QueryRead: both must agree
// with each other and with the scan, and the clustered run must read the
// heap of copies only — never a primary pointer.
func TestClusteredGenerationMatchesPrimary(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	labels := []string{"a", "b", "c", "d"}
	ctx := context.Background()
	for _, depthLimit := range []int{0, 3} {
		st, err := storage.NewStore(storage.NewMemFile(), xmltree.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := st.AppendTree(randomPropDoc(rng, labels, 4)); err != nil {
				t.Fatal(err)
			}
		}
		plain, err := Build(st, Options{DepthLimit: depthLimit})
		if err != nil {
			t.Fatal(err)
		}
		c := cluster(t, plain)
		pg, read := freeze(t, plain), c.read(t)
		heap := c.heap
		heapReads := func() int64 {
			s := heap.Stats()
			return s.SeqReads + s.RandomReads + s.CachedReads
		}
		for qn := 0; qn < 100; qn++ {
			qs := randomPropQuery(rng, labels, 3, 3)
			q := xpath.MustParse(qs)
			scan, err := pg.ScanCount(ctx, q.Tree(), nil, Limits{})
			if err != nil {
				t.Fatalf("L=%d %s: scan: %v", depthLimit, qs, err)
			}
			a, err := query(pg, q)
			if err != nil {
				t.Fatalf("L=%d %s: %v", depthLimit, qs, err)
			}
			primary0, heap0 := st.Stats().SubtreeReads, heapReads()
			b, err := queryRead(pg, q, read)
			if err != nil {
				t.Fatalf("L=%d %s clustered: %v", depthLimit, qs, err)
			}
			if a.Count != scan.Count || b.Count != scan.Count || a.Matched != b.Matched {
				t.Fatalf("L=%d %s: unclustered %+v, clustered %+v, scan %+v", depthLimit, qs, a, b, scan)
			}
			if depthLimit == 0 && a.Matched != scan.Matched {
				t.Fatalf("%s: %d matching entries, scan found %d matching documents", qs, a.Matched, scan.Matched)
			}
			if d := st.Stats().SubtreeReads - primary0; d != 0 {
				t.Fatalf("L=%d %s: clustered generation followed %d primary pointers", depthLimit, qs, d)
			}
			if b.Candidates == 0 {
				continue
			}
			if heapReads() == heap0 {
				t.Fatalf("L=%d %s: %d candidates refined without reading the clustered heap", depthLimit, qs, b.Candidates)
			}
		}
	}
}
