//go:build !race

package collection

import (
	"context"
	"testing"

	"github.com/fix-index/fix/internal/datagen"
	"github.com/fix-index/fix/internal/xmltree"
)

// collectionQueryAllocCeiling is 1.5 times what a query of
// TestCollectionQueryAllocs allocates once refinement reads records in
// place in the heap's mapping: 9 per query, against 40 when every
// candidate record was copied into a fresh buffer and cached in a fresh
// entry.
const collectionQueryAllocCeiling = 14

// TestCollectionQueryAllocs pins what a served collection query costs in
// memory: a 4-shard on-disk collection of 1 000 DBLP records, queried
// round-robin with two templates that target one shard and two that
// scatter to all four, allocates a handful of per-request objects and
// nothing per candidate — a record read that copies again fails here. It
// is excluded from race builds, where sync.Pool drops objects on purpose.
func TestCollectionQueryAllocs(t *testing.T) {
	ctx := context.Background()
	c := newTestCollection(t, Spec{Name: "bib", Shards: 4}, Options{})
	var docs []string
	for _, rec := range datagen.DBLP(datagen.Config{Seed: 4, Scale: 0.025}).Children {
		docs = append(docs, xmltree.MarshalString(rec))
	}
	if _, err := c.AddBatch(ctx, docs); err != nil {
		t.Fatal(err)
	}
	templates := []string{
		"/article[author][title[sub]][journal][number][volume][year][url]",
		"/inproceedings[author][title[i]][booktitle][year][pages][url][ee]",
		"//inproceedings[author][title[i]][booktitle][year][pages][url][ee]",
		"//book[author][title[sub]][publisher][year]",
	}
	candidates, next := 0, 0
	run := func() {
		res, err := c.Query(ctx, templates[next%len(templates)], QueryOpts{})
		if err != nil || res.Partial {
			t.Fatalf("%s: %+v, %v", templates[next%len(templates)], res, err)
		}
		candidates += res.Candidates
		next++
	}
	for range templates {
		run() // plan every template on every shard it reaches
	}
	allocs := testing.AllocsPerRun(4*10, run)
	t.Logf("%v allocs per query, %d candidates over %d queries", allocs, candidates, next)
	if candidates < next {
		t.Fatalf("%d candidates over %d queries: the templates no longer reach the records", candidates, next)
	}
	if allocs > collectionQueryAllocCeiling {
		t.Errorf("%v allocs per query, want at most %d", allocs, collectionQueryAllocCeiling)
	}
}
