package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// TestRTreeCandidatesMatchBTree checks the §8 R-tree variant returns
// exactly the B-tree's candidate set on random workloads.
func TestRTreeCandidatesMatchBTree(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	labels := []string{"a", "b", "c", "d"}
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.Elem("root")
	for i := 0; i < 40; i++ {
		root.Children = append(root.Children, randomPropDoc(rng, labels, 5))
	}
	if _, err := st.AppendTree(root); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(st, Options{DepthLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ix.BuildFeatureRTree()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != ix.Entries() {
		t.Fatalf("rtree holds %d entries, index has %d", rt.Len(), ix.Entries())
	}
	g := freeze(t, ix)
	for qn := 0; qn < 40; qn++ {
		qs := randomPropQuery(rng, labels, 3, 3)
		q := xpath.MustParse(qs)
		bt, _, err := g.CandidatesCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rtc, err := rt.Candidates(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(bt) != len(rtc) {
			t.Fatalf("%s: btree %d candidates, rtree %d", qs, len(bt), len(rtc))
		}
		a := make([]uint64, len(bt))
		b := make([]uint64, len(rtc))
		for i := range bt {
			a[i] = uint64(bt[i].Primary)
			b[i] = uint64(rtc[i].Primary)
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: candidate sets differ at %d", qs, i)
			}
		}
	}
}

func TestRTreeOversizeEntriesAlwaysCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	labels := []string{"a", "b", "c"}
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.Elem("root")
	for i := 0; i < 15; i++ {
		root.Children = append(root.Children, randomPropDoc(rng, labels, 4))
	}
	if _, err := st.AppendTree(root); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(st, Options{DepthLimit: 3, EdgeBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.OversizeEntries() == 0 {
		t.Skip("no oversize entries generated")
	}
	rt, err := ix.BuildFeatureRTree()
	if err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse("//a[b][c]")
	bt, _, err := freeze(t, ix).CandidatesCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rtc, err := rt.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt) != len(rtc) {
		t.Fatalf("btree %d candidates, rtree %d", len(bt), len(rtc))
	}
}
