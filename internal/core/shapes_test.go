package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// TestShapeTableMatchesDirectExtraction extracts every unit of the XMark
// entity, DBLP record and Treebank sentence fixtures through the shape
// table — after a build has filled it, so nearly every unit is a hit — and
// directly, with the solver, at depth limits 0, 3 and 6, values off and
// on: σ and sketch are bit-equal and oversize equal on every unit.
func TestShapeTableMatchesDirectExtraction(t *testing.T) {
	fixtures := map[string][]*xmltree.Node{
		"xmark entities":     xmarkEntities(datagen.Config{Seed: 2, Scale: 0.02}),
		"dblp records":       datagen.DBLP(datagen.Config{Seed: 2, Scale: 0.02}).Children,
		"treebank sentences": datagen.Treebank(datagen.Config{Seed: 2, Scale: 0.02}).Children,
	}
	for name, docs := range fixtures {
		for _, limit := range []int{0, 3, 6} {
			for _, values := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s, depth %d, values %t", name, limit, values), func(t *testing.T) {
					st := storeOf(t, docs)
					ix, err := Build(st, Options{DepthLimit: limit, Values: values, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					recs := make([]uint32, st.NumRecords())
					for i := range recs {
						recs[i] = uint32(i)
					}
					units := make([]*buildUnit, len(recs))
					if err := ix.extract(context.Background(), recs, units, &phaseTimers{}); err != nil {
						t.Fatal(err)
					}
					ix.shapes.mu.Lock()
					kept := len(ix.shapes.ids)
					ix.shapes.mu.Unlock()
					if kept == 0 {
						t.Fatal("the shape table holds nothing after a build")
					}
					n := 0
					for _, u := range units {
						for i, e := range u.entries {
							var want Features
							if limit == 0 {
								want, err = ix.documentFeatures(u)
							} else {
								want, err = subpatternFeatures(u.elems[i].v, limit, ix.opts.EdgeBudget, ix.enc)
							}
							if err != nil {
								t.Fatal(err)
							}
							if got := e.f; math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) || got.Sketch != want.Sketch || got.Oversize != want.Oversize {
								t.Fatalf("record %d, unit at %v: the table gives %+v, the solver %+v", u.rec, e.ptr, got, want)
							}
							n++
						}
					}
					if n < len(docs) {
						t.Fatalf("compared %d units of %d records", n, len(docs))
					}
				})
			}
		}
	}
}

// TestShapeTableLeavesIndexBytesAlone ingests one stream of XMark entity
// documents, four a batch, into two on-disk depth-6 indexes over the same
// bulk-built seed; one of them has its shape table cleared before every
// batch, so it computes every shape afresh. The two fix.btree files come
// out byte-identical.
func TestShapeTableLeavesIndexBytesAlone(t *testing.T) {
	docs := xmarkEntities(datagen.Config{Seed: 4, Scale: 0.03})
	half := len(docs) / 2
	ingest := func(dir string, clear bool) []byte {
		hf, err := storage.Create(filepath.Join(dir, "data.heap"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := storage.NewStore(hf, xmltree.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs[:half] {
			if _, err := st.AppendTree(d); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Build(st, Options{DepthLimit: 6, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := half; i < len(docs); i += 4 {
			var recs []uint32
			for _, d := range docs[i:min(i+4, len(docs))] {
				rec, err := st.AppendTree(d)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
			}
			if clear {
				ix.shapes.mu.Lock()
				ix.shapes.clear()
				ix.shapes.mu.Unlock()
			}
			if err := ix.InsertDocuments(recs...); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "fix.btree"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kept, cleared := ingest(t.TempDir(), false), ingest(t.TempDir(), true)
	if !bytes.Equal(kept, cleared) {
		t.Fatalf("fix.btree with the shape table kept (%d bytes) differs from one cleared before every batch (%d bytes)", len(kept), len(cleared))
	}
}

// TestShapeKeySaysWhichSubpattern pins the flag of a depth-limited key.
// The two <a> below unfold alike down to depth 3, so their cut ids are
// equal, but the first is 3 deep and the second 4: Subpattern takes the
// first's Reachable graph, whose 4 edges fit a budget of 4, and runs a
// traveler over the second, whose 5 events do not. One is oversize, the
// other not, and the table must not hand either the other's features.
func TestShapeKeySaysWhichSubpattern(t *testing.T) {
	var docs []*xmltree.Node
	for _, s := range []string{"<r><a><b><c/></b><e><c/></e></a></r>", "<r><a><b><c><d/></c></b><e><c><d/></c></e></a></r>"} {
		n, err := xmltree.ParseString(s)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, n)
	}
	ix, err := Build(storeOf(t, docs), Options{DepthLimit: 3, EdgeBudget: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	units := make([]*buildUnit, 2)
	if err := ix.extract(context.Background(), []uint32{0, 1}, units, &phaseTimers{}); err != nil {
		t.Fatal(err)
	}
	var oversize []bool
	for _, u := range units {
		for i, e := range u.entries {
			if ix.dict.Label(e.label) == "a" {
				oversize = append(oversize, e.f.Oversize)
				if want, err := subpatternFeatures(u.elems[i].v, 3, 4, ix.enc); err != nil || want != e.f {
					t.Fatalf("record %d: the table gives %+v, the solver %+v, %v", u.rec, e.f, want, err)
				}
			}
		}
	}
	if len(oversize) != 2 || oversize[0] || !oversize[1] {
		t.Fatalf("oversize of the two <a>: %v, want [false true]", oversize)
	}
}
