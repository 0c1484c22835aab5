package core

import (
	"math/rand"
	"testing"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// The spectrum filter (§3.3 "whole set of eigenvalues", Options.SpectrumK)
// must only remove false positives, never true matches.

func spectrumStore(t *testing.T, seed int64) *storage.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d"}
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.Elem("root")
	for i := 0; i < 30; i++ {
		root.Children = append(root.Children, randomPropDoc(rng, labels, 5))
	}
	if _, err := st.AppendTree(root); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSpectrumFilterCompleteAndMonotone(t *testing.T) {
	st := spectrumStore(t, 808)
	plain, err := Build(st, Options{DepthLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	spectral, err := Build(st, Options{DepthLimit: 4, SpectrumK: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(809))
	plainGen := freeze(t, plain)
	spectralGen := freeze(t, spectral)
	for qn := 0; qn < 40; qn++ {
		qs := randomPropQuery(rng, []string{"a", "b", "c", "d"}, 3, 3)
		q := xpath.MustParse(qs)
		a, err := query(plainGen, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := query(spectralGen, q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count != b.Count || a.Matched != b.Matched {
			t.Fatalf("%s: spectrum filter changed results: %+v vs %+v", qs, a, b)
		}
		if b.Candidates > a.Candidates {
			t.Errorf("%s: spectrum filter increased candidates (%d -> %d)", qs, a.Candidates, b.Candidates)
		}
		_, wantCount := bruteCount(t, st, q)
		if b.Count != wantCount {
			t.Fatalf("%s: spectral index count %d, want %d", qs, b.Count, wantCount)
		}
	}
}

func TestSpectrumFilterWithPaperBound(t *testing.T) {
	st := spectrumStore(t, 810)
	ix, err := Build(st, Options{DepthLimit: 4, SpectrumK: 3, PaperPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	// The paper-mode benchmark queries (distinct labels per level) stay
	// exact under the spectrum filter too.
	g := freeze(t, ix)
	for _, qs := range []string{"//a/b", "//a[b][c]", "//b/c/d"} {
		q := xpath.MustParse(qs)
		_, wantCount := bruteCount(t, st, q)
		res, err := query(g, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != wantCount {
			t.Errorf("%s: count %d, want %d", qs, res.Count, wantCount)
		}
	}
}

func TestSpectrumContainsSemantics(t *testing.T) {
	cases := []struct {
		entry   []float64
		queries [][]float64
		want    bool
	}{
		{nil, [][]float64{{5}}, true}, // no entry spectrum: keep
		{[]float64{5}, nil, true},     // no query spectrum: keep
		{[]float64{5, 3}, [][]float64{{4, 2}}, true},
		{[]float64{5, 3}, [][]float64{{4, 3.5}}, false},
		{[]float64{5}, [][]float64{{4, 99}}, true}, // extra query components unchecked
		{[]float64{5, 3}, [][]float64{{4}, {6}}, false},
		{[]float64{5, 3}, [][]float64{{5, 3}}, true}, // equality with slack
	}
	for i, c := range cases {
		if got := spectrumContains(c.entry, c.queries); got != c.want {
			t.Errorf("case %d: spectrumContains = %v, want %v", i, got, c.want)
		}
	}
}
