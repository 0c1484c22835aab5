package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// unitSketch recomputes, from the heap and not from the build's graphs
// (unitPairs), the pair sketch of the unit whose root is at p.
func unitSketch(t *testing.T, ix *Index, p storage.Pointer) uint32 {
	t.Helper()
	var sk uint32
	if err := ix.unitPairs(p, func(w int32) { sk |= pairBit(w) }); err != nil {
		t.Fatal(err)
	}
	return sk
}

// checkChunkSketches requires every chunk's sketch to hold the OR of its
// postings' recomputed sketches, and to be that OR exactly when tight.
func checkChunkSketches(t *testing.T, ix *Index, tight bool, what string) {
	t.Helper()
	var chunk storage.Pointer
	var want, got uint32
	flush := func() {
		if got&want != want || tight && got != want {
			t.Fatalf("%s: chunk at %v has sketch %#x, its postings %#x", what, chunk, got, want)
		}
	}
	chunks := 0
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		r := openPostings(keyPointer(k), v)
		chunk, got, want = keyPointer(k), r.sketch, 0
		for r.next() {
			want |= unitSketch(t, ix, r.ptr)
		}
		if !r.ok() {
			t.Fatalf("%s: chunk %x does not decode", what, k)
		}
		flush()
		chunks++
		return true
	})
	if err != nil || chunks == 0 {
		t.Fatalf("%s: %d chunks, %v", what, chunks, err)
	}
}

// TestChunkSketchCoversPostings builds an index over half of a stream of
// XMark entity documents, appends the rest four a request and deletes
// every third: after the build and the appends every chunk's sketch is
// the OR of its postings' sketches, recomputed from the heap; after the
// deletes it still holds that OR (it keeps the bits of the postings that
// went, until a rebuild).
func TestChunkSketchCoversPostings(t *testing.T) {
	docs := xmarkEntities(datagen.Config{Seed: 5, Scale: 0.02})
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
			checkChunkSketches(t, ix, true, "bulk build")
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
			checkChunkSketches(t, ix, true, "after the appends")
			var doomed []uint32
			for rec := 0; rec < st.NumRecords(); rec += 3 {
				doomed = append(doomed, uint32(rec))
			}
			if _, err := ix.DeleteDocuments(doomed); err != nil {
				t.Fatal(err)
			}
			checkChunkSketches(t, ix, false, "after the deletes")
			if err := ix.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// randomSketchQuery renders a random twig over labels: steps of child or
// descendant axis, predicates that name a child, a descendant, a path of
// two steps or a child's value.
func randomSketchQuery(rng *rand.Rand, labels, values []string) string {
	var b strings.Builder
	for steps := 1 + rng.Intn(2); steps > 0; steps-- {
		b.WriteString([]string{"/", "//"}[rng.Intn(2)])
		b.WriteString(labels[rng.Intn(len(labels))])
		for k := rng.Intn(4); k > 0; k-- {
			b.WriteString("[")
			if rng.Intn(4) == 0 {
				b.WriteString(".//")
			}
			b.WriteString(labels[rng.Intn(len(labels))])
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "=%q", values[rng.Intn(len(values))])
			case 1:
				b.WriteString("/" + labels[rng.Intn(len(labels))])
			}
			b.WriteString("]")
		}
	}
	return b.String()
}

// TestSketchNeverDropsAMatch is the soundness property of the pair
// sketch: over random documents and twigs, on depth-limited and
// whole-document indexes, with value hashing off and on, every query
// counts what the scan counts, and the entries the sketch dropped are
// entries σ kept — while the sketch drops some.
func TestSketchNeverDropsAMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	labels := []string{"a", "b", "c", "d", "e"}
	values := []string{"x", "y", "z"}
	ctx := context.Background()
	for _, opts := range []Options{{}, {Values: true}, {DepthLimit: 3}, {DepthLimit: 3, Values: true}} {
		for trial := 0; trial < 4; trial++ {
			var docs []*xmltree.Node
			for i := 0; i < 30; i++ {
				d := randomPropDoc(rng, labels, 4)
				d.Walk(func(n *xmltree.Node) bool {
					if !n.IsText() && len(n.Children) == 0 && rng.Intn(2) == 0 {
						n.Children = append(n.Children, xmltree.Text(values[rng.Intn(len(values))]))
					}
					return true
				})
				docs = append(docs, d)
			}
			st := storeOf(t, docs)
			ix, err := Build(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			g := freeze(t, ix)
			pruned := 0
			for qn := 0; qn < 60; qn++ {
				qs := randomSketchQuery(rng, labels, values)
				q := xpath.MustParse(qs)
				pq := prepare(t, g, q)
				if !pq.Covered() {
					continue
				}
				scan, err := g.ScanCount(ctx, q.Tree(), nil, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := queryPrepared(g, pq, q)
				if err != nil {
					t.Fatalf("%+v %s: %v", opts, qs, err)
				}
				if res.Count != scan.Count || opts.DepthLimit == 0 && res.Matched != scan.Matched {
					t.Fatalf("%+v %s: %d results in %d entries (%d candidates, %d dropped by the sketch), the scan %d in %d",
						opts, qs, res.Count, res.Matched, res.Candidates, res.SketchPruned, scan.Count, scan.Matched)
				}
				pruned += res.SketchPruned
			}
			if pruned == 0 {
				t.Errorf("%+v trial %d: the sketch dropped nothing", opts, trial)
			}
		}
	}
}

// xmarkReadTexts are the benchmark's xmark_read templates
// (bench/fixload/data.go): the paper's seven XMark queries and fourteen
// random twigs.
var xmarkReadTexts = []string{
	"//category/description[parlist]/parlist/listitem/text",
	"//closed_auction/annotation/description/text",
	"//open_auction[seller]/annotation/description/text",
	"//item/mailbox/mail/text/emph/keyword",
	"//description/parlist/listitem",
	"//item[name]/mailbox/mail[to]/text[bold]/emph/bold",
	"//item[payment][quantity][shipping][mailbox/mail/text]/description/parlist",
	"//emph[keyword]",
	"//listitem[parlist[listitem]]",
	"//person[name][watches]",
	"//text[bold][emph]",
	"//annotation[description[text]][author]",
	"//bidder[personref][date]",
	"//listitem[text[bold][emph]]",
	"//description[text[keyword]]",
	"//parlist[listitem[parlist]]",
	"//mail[from][text[bold]]",
	"//open_auction[quantity][initial][itemref]",
	"//open_auction[bidder][annotation[description][author]][itemref]",
	"//mailbox[mail[date][to]]",
	"//item[payment][name][location]",
}

// TestSketchPrunesXMarkRead is the count gate of the pair sketch: over the
// benchmark's 21 xmark_read texts on a depth-6 index of a small XMark
// document, the sketch keeps at most 60 % of the candidates σ keeps, and
// every answer is the scan's. A build or an append that stopped writing
// sketches (or wrote every bit) fails here, with no timing involved.
func TestSketchPrunesXMarkRead(t *testing.T) {
	st := storeOf(t, []*xmltree.Node{datagen.XMark(datagen.Config{Seed: 1, Scale: 0.05})})
	ix, err := Build(st, Options{DepthLimit: 6})
	if err != nil {
		t.Fatal(err)
	}
	g := freeze(t, ix)
	ctx := context.Background()
	kept, sigma := 0, 0
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
		kept += res.Candidates
		sigma += res.PaperCandidates()
	}
	if 10*kept > 6*sigma {
		t.Errorf("the sketch kept %d of the %d candidates σ keeps, want at most 60 %%", kept, sigma)
	}
}
