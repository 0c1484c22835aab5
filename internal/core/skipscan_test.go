//go:build !race

// Some 6 000 probes, each compared with a filter over every entry, on one
// goroutine: the race detector has nothing to find and takes 40 s over it.

package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// bibTemplates are the benchmark's bibliography templates
// (bench/fixload/data.go): eight anchored at the root, eight that start
// with // and on a collection index leave the probe without a label.
var bibTemplates = []string{
	"/article[author][title[sub]][journal][number][volume][year][url]",
	"/article[title[i]][journal][number][volume][year][url]/author",
	"/inproceedings[title[sub]][booktitle][year][pages][url][ee]/author",
	"/inproceedings[author][title[i]][booktitle][year][pages][url][ee]",
	"/proceedings[editor][title[i]][booktitle][publisher][year][isbn]",
	"/book[author][title[sup]][publisher][year]",
	"/book[author][publisher][year]/title[i]",
	"/www[author][url]/title[i]",
	"//inproceedings[title[sub]][booktitle][year][pages][url][ee]/author",
	"//inproceedings[title[sup]][booktitle][year][pages][url][ee]/author",
	"//inproceedings[author][title[i]][booktitle][year][pages][url][ee]",
	"//inproceedings[author][title[sub]][booktitle][year][pages][url][ee]",
	"//book[author][title[sub]][publisher][year]",
	"//book[author][title[sup]][publisher][year]",
	"//www[author][url]/title[i]",
	"//www[author][title[sup]][url]",
}

// everyEntry reads the whole image in key order.
func everyEntry(t *testing.T, g *Generation) []indexEntry {
	t.Helper()
	return expand(t, g.view.Scan)
}

// filterEverything is the probe as it was before it skipped: every entry of
// the index through the plan's filter, and pruned the entries the filter
// keeps but the sketch of their chunk drops. It also counts what a probe
// that reads only what can match may touch — the entries from sigma on,
// whatever their label — and the labels there are.
func filterEverything(entries []indexEntry, p *queryPlan, buf []Candidate) (cands []Candidate, pruned, inRange, labels int) {
	cands = buf[:0]
	sigma := p.feats[0].Sigma
	for _, f := range p.feats {
		sigma = max(sigma, f.Sigma)
	}
	seen := map[uint32]bool{}
entries:
	for _, e := range entries {
		seen[e.label] = true
		if p.labelOK && e.label != p.topLabel {
			continue
		}
		if e.sigma >= sigma {
			inRange++
		}
		for _, f := range p.feats {
			if !(Features{Sigma: e.sigma}).Contains(f) {
				continue entries
			}
		}
		if e.sketch&p.sketch != p.sketch {
			pruned++
			continue
		}
		cands = append(cands, Candidate{Primary: e.ptr})
	}
	return cands, pruned, inRange, len(seen)
}

// TestProbeMatchesScanOfEverything is the differential test of the probe's
// scan: for the benchmark's templates and 200 random twigs, over DBLP
// collections of five seeds, a TCMD collection and a depth-limited DBLP
// document, with the root label on and off, the
// candidate list equals — element for element, in order — what filtering
// every entry of the index yields, so does the count the sketch pruned,
// and the probe touched no more than the entries from the query's λmax on
// plus one per label.
func TestProbeMatchesScanOfEverything(t *testing.T) {
	type dataset struct {
		docs  []*xmltree.Node
		depth int
	}
	datasets := map[string]dataset{"dblp document, depth limit 4": {[]*xmltree.Node{datagen.DBLP(datagen.Config{Seed: 1, Scale: 0.02})}, 4}}
	for seed := int64(1); seed <= 5; seed++ {
		datasets[fmt.Sprintf("dblp records, seed %d", seed)] = dataset{datagen.DBLP(datagen.Config{Seed: seed, Scale: 0.1}).Children, 0}
	}
	tcmd, err := datagen.Generate(datagen.TCMDDataset, datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var articles []*xmltree.Node
	for rec := 0; rec < tcmd.NumRecords(); rec++ {
		cur, err := tcmd.Cursor(uint32(rec))
		if err != nil {
			t.Fatal(err)
		}
		n, err := cur.Decode(0)
		if err != nil {
			t.Fatal(err)
		}
		articles = append(articles, n)
	}
	datasets["tcmd"] = dataset{articles, 0}

	for what, ds := range datasets {
		st := storeOf(t, ds.docs)
		queries := datagen.RandomQueries(st, 7, 200, 4, 3)
		for _, s := range bibTemplates {
			queries = append(queries, xpath.MustParse(s))
		}
		var ix *Index
		var entries []indexEntry
		var gotBuf, wantBuf []Candidate // reused: many of the random twigs match most of the index
		for _, opts := range []Options{{}, {NoRootLabel: true}} {
			opts.DepthLimit = ds.depth
			if !opts.NoRootLabel { // which only plan reads: the index built without it serves both
				if ix, err = Build(st, opts); err != nil {
					t.Fatal(err)
				}
				entries = everyEntry(t, freeze(t, ix))
			}
			ix.opts.NoRootLabel = opts.NoRootLabel
			g := freeze(t, ix)
			probed, unlabelled := 0, 0
			for _, q := range queries {
				p, err := ix.plan(q.Tree())
				if err != nil || p.empty {
					continue // deeper than the index, or a label the data does not have
				}
				got, scanned, pruned, err := g.candidates(context.Background(), p, Limits{}, gotBuf, nil)
				if err != nil {
					t.Fatalf("%s, %+v: %s: %v", what, opts, q, err)
				}
				want, wantPruned, inRange, labels := filterEverything(entries, p, wantBuf)
				gotBuf, wantBuf = got, want
				if len(got) != len(want) || pruned != wantPruned {
					t.Fatalf("%s, %+v: %s: %d candidates and %d pruned, filtering every entry yields %d and %d", what, opts, q, len(got), pruned, len(want), wantPruned)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, %+v: %s: candidate %d is %+v, filtering every entry yields %+v", what, opts, q, i, got[i], want[i])
					}
				}
				if scanned > inRange+labels {
					t.Errorf("%s, %+v: %s: the probe touched %d entries; %d lie at or above the query's λmax and there are %d labels", what, opts, q, scanned, inRange, labels)
				}
				probed++
				if !p.labelOK {
					unlabelled++
				}
			}
			if probed < 100 || (unlabelled == 0) != (ds.depth > 0 && !opts.NoRootLabel) {
				t.Errorf("%s, %+v: %d queries probed, %d of them without a label", what, opts, probed, unlabelled)
			}
		}
	}
}
