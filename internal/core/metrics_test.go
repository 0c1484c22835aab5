package core

import (
	"context"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/xpath"
)

func TestComputeMetrics(t *testing.T) {
	m := Result{Entries: 100, Candidates: 15, SketchPruned: 5, Matched: 10}.Metrics()
	if m.Sel != 0.9 || m.PP != 0.8 || m.FPR != 0.5 || m.Cdt != 20 {
		t.Errorf("metrics = %+v", m)
	}
	zero := Result{}.Metrics()
	if zero.Sel != 0 || zero.PP != 0 || zero.FPR != 0 {
		t.Errorf("zero metrics = %+v", zero)
	}
	s := m.String()
	for _, want := range []string{"sel=90.00%", "pp=80.00%", "fpr=50.00%", "ent=100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestExistsShortCircuit(t *testing.T) {
	_, ix := buildCollection(t, bibDocs, Options{})
	g := freeze(t, ix)
	ok, err := g.ExistsPrepared(context.Background(), prepare(t, g, xpath.MustParse("//author[email]")))
	if err != nil || !ok {
		t.Errorf("Exists = %v, %v", ok, err)
	}
	ok, err = g.ExistsPrepared(context.Background(), prepare(t, g, xpath.MustParse("//author[phone][affiliation]")))
	if err != nil || ok {
		t.Errorf("Exists(impossible) = %v, %v", ok, err)
	}
	ok, err = g.ExistsPrepared(context.Background(), prepare(t, g, xpath.MustParse("//nosuchlabel")))
	if err != nil || ok {
		t.Errorf("Exists(unknown label) = %v, %v", ok, err)
	}
}

func TestQueryFeaturesExposure(t *testing.T) {
	_, ix := buildCollection(t, bibDocs, Options{})
	f, ok, err := ix.QueryFeatures(xpath.MustParse("//article[author]/title"))
	if err != nil || !ok {
		t.Fatalf("QueryFeatures: %v %v", ok, err)
	}
	if f.Sigma <= 0 || f.Oversize {
		t.Errorf("features = %+v, want a positive finite sigma", f)
	}
	if _, ok, _ := ix.QueryFeatures(xpath.MustParse("//nosuchlabel")); ok {
		t.Error("unknown label produced features")
	}
}

func TestCoveredCollectionAlwaysTrue(t *testing.T) {
	_, ix := buildCollection(t, bibDocs, Options{})
	if !prepare(t, freeze(t, ix), xpath.MustParse("//a/b/c/d/e/f/g/h/i/j")).Covered() {
		t.Error("collection index should cover any depth")
	}
}

func TestBuildTimeAndSizes(t *testing.T) {
	_, ix := buildCollection(t, bibDocs, Options{})
	if ix.BuildTime() <= 0 {
		t.Error("BuildTime not positive")
	}
	if ix.SizeBytes() != ix.BTree().Size() {
		t.Errorf("index %d B, B-tree %d B: want the B-tree alone", ix.SizeBytes(), ix.BTree().Size())
	}
	if ix.EdgePairs() == 0 {
		t.Error("no edge pairs assigned")
	}
	if ix.Store() == nil {
		t.Error("store accessors nil")
	}
	if ix.MaxDocDepth() <= 0 {
		t.Error("MaxDocDepth not positive")
	}
}
