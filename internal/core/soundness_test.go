package core

import (
	"testing"

	"github.com/fix-index/fix/internal/xpath"
)

// TestPaperBoundFalseNegativeDemonstration pins down the completeness gap
// in the scheme as published (and why PaperPruning is not the default).
// The query //b[a[c]][a] matches <b><a><c/></a></b>: the single a[c]
// child witnesses both predicates, so the match maps two query nodes onto
// one document node. The query's pattern graph then has more edges than
// the document's, its σmax is strictly larger, and the paper's
// containment test prunes the true match. Canonicalization (which
// rewrites [a[c]][a] to [a[c]] — an exact transformation) restores
// completeness for this shape; the default sound bound is complete for
// every shape.
func TestPaperBoundFalseNegativeDemonstration(t *testing.T) {
	docs := []string{
		`<b><a><c/></a></b>`,
		// Padding documents so pruning has something to do.
		`<b><a/></b>`,
		`<b><c/></b>`,
	}
	q := xpath.MustParse("//b[a[c]][a]")

	_, sound := buildCollection(t, docs, Options{})
	res, err := query(freeze(t, sound), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 || res.Matched != 1 {
		t.Fatalf("sound bound lost the match: %+v", res)
	}

	// The canonicalized paper bound also finds it ([a] is subsumed).
	_, paper := buildCollection(t, docs, Options{PaperPruning: true})
	res, err = query(freeze(t, paper), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 {
		t.Fatalf("canonicalized paper bound lost the match: %+v", res)
	}

	// Demonstrate the raw flaw without canonicalization: compute the
	// uncanonicalized pattern's features and show they exceed the
	// document's, i.e. the containment test of Algorithm 2 would prune
	// the only true match.
	pn, ok := paper.resolve(q.Tree(), nil)
	if !ok {
		t.Fatal("resolve failed")
	}
	g, err := patternGraph(pn) // NOT canonicalized
	if err != nil {
		t.Fatal(err)
	}
	qf, ok, err := graphFeatures(g, paper.enc, false)
	if err != nil || !ok {
		t.Fatalf("features: %v %v", ok, err)
	}
	var docMax float64
	for _, e := range expand(t, paper.bt.Scan) {
		if e.ptr.Rec() == 0 { // the matching document
			docMax = e.sigma
		}
	}
	if qf.Sigma <= docMax {
		t.Fatalf("expected the uncanonicalized query bound (%v) to exceed the matching document's (%v)",
			qf.Sigma, docMax)
	}
}

// TestCanonicalizationSubsumption checks the exact rewriting rules.
func TestCanonicalizationSubsumption(t *testing.T) {
	_, ix := buildCollection(t, bibDocs, Options{})
	cases := []struct {
		query string
		nodes int // canonical pattern size
	}{
		{"//article[author][author]", 2},               // identical branches merge
		{"//article[author[email]][author]", 3},        // subsumed branch dropped
		{"//article[author[email]][author[phone]]", 3}, // incomparable: keep one
	}
	for _, c := range cases {
		pn, ok := ix.resolve(xpath.MustParse(c.query).Tree(), nil)
		if !ok {
			t.Fatalf("%s: resolve failed", c.query)
		}
		canonicalize(pn)
		if got := pn.size(); got != c.nodes {
			t.Errorf("%s: canonical size = %d, want %d", c.query, got, c.nodes)
		}
	}
}

func TestSoundBoundNeverExceedsPaperBound(t *testing.T) {
	_, ix := buildCollection(t, bibDocs, Options{})
	for _, qs := range []string{
		"//article[author]/title",
		"//author[email][affiliation]",
		"//book/author/phone",
	} {
		pn, ok := ix.resolve(xpath.MustParse(qs).Tree(), nil)
		if !ok {
			t.Fatalf("%s: resolve failed", qs)
		}
		canonicalize(pn)
		g, err := patternGraph(pn)
		if err != nil {
			t.Fatal(err)
		}
		paper, ok, err := graphFeatures(g, ix.enc, false)
		if err != nil || !ok {
			t.Fatalf("%s: %v %v", qs, ok, err)
		}
		sound, ok, err := ix.soundFeatures(pn, g)
		if err != nil || !ok {
			t.Fatalf("%s: %v %v", qs, ok, err)
		}
		if sound.Sigma > paper.Sigma+1e-9 {
			t.Errorf("%s: sound bound %v exceeds paper bound %v", qs, sound.Sigma, paper.Sigma)
		}
	}
}
