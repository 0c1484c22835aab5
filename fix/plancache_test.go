package fix

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestIndexSharesTheDBDictionary: the index compiles a cached query's
// refinement matcher with its own dictionary, and a generation reads
// records with the DB's, so the two must be one object — after a build, a
// reopen and a rebuild alike.
func TestIndexSharesTheDBDictionary(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		if ix := db.indexRef(); ix == nil || ix.Dict() != db.dict {
			t.Fatalf("%s: the index's dictionary is not the DB's", when)
		}
	}
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	check("after BuildIndex")
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	check("after Open")
	if err := db.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	check("after RebuildIndex")
}

// TestPlanCacheSeesNewLabels: a text naming a root label no document has
// counts 0; once a document rooted at that label is committed — by
// AddDocument or by an Ingester.Apply — the same text finds it on the DB
// and on a View opened afterwards, while a View pinned before still
// answers 0. Each text is queried before its label exists, so a plan
// cached then would hide the new document.
func TestPlanCacheSeesNewLabels(t *testing.T) {
	db, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	ing := db.NewIngester(IngestConfig{})
	defer func() { _ = ing.Close() }()
	count := func(v *View, text string) int {
		t.Helper()
		res, err := v.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := v.Query(text, ScanOnly())
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != scan.Count {
			t.Fatalf("%s = %d, a scan of the same view %d", text, res.Count, scan.Count)
		}
		return res.Count
	}
	for _, tc := range []struct {
		via, text string
		add       func(doc string) error
	}{
		{"AddDocument", "/x[y]", func(doc string) error {
			_, err := db.AddDocumentString(doc)
			return err
		}},
		{"Ingester.Apply", "/w[y]", func(doc string) error {
			op, err := db.AddOp(doc)
			if err == nil {
				_, err = ing.Apply(context.Background(), []Op{op})
			}
			return err
		}},
	} {
		before := db.View()
		if got := count(before, tc.text); got != 0 {
			t.Fatalf("%s: %s before the label exists = %d", tc.via, tc.text, got)
		}
		if res, err := db.Query(tc.text); err != nil || res.Count != 0 {
			t.Fatalf("%s: DB %s = %+v, %v; want 0", tc.via, tc.text, res, err)
		}
		root := tc.text[1:2]
		if err := tc.add("<" + root + "><y/></" + root + ">"); err != nil {
			t.Fatal(err)
		}
		if res, err := db.Query(tc.text); err != nil || res.Count != 1 {
			t.Errorf("%s: DB %s after the add = %+v, %v; want 1", tc.via, tc.text, res, err)
		}
		after := db.View()
		if got := count(after, tc.text); got != 1 {
			t.Errorf("%s: View %s after the add = %d, want 1", tc.via, tc.text, got)
		}
		if got := count(before, tc.text); got != 0 {
			t.Errorf("%s: a View pinned before the add sees %s = %d, want 0", tc.via, tc.text, got)
		}
		_ = before.Close()
		_ = after.Close()
	}
}

// TestPlanCacheConcurrentNewLabels is the -race test of the cache:
// readers query fixed texts on pinned Views while an ingester commits
// documents whose labels — and so whose label pairs — are new, growing
// the dictionary and the encoder under the readers' lookups. Every answer
// must equal a ScanOnly query of the same View.
func TestPlanCacheConcurrentNewLabels(t *testing.T) {
	db, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	ing := db.NewIngester(IngestConfig{})
	defer func() { _ = ing.Close() }()

	const (
		readers = 4
		writes  = 16
	)
	texts := []string{"//article[author]/title", "//m", "/n1[m]", "/n7[m[k3]]", "//m[k5]", "//n4/m"}
	var (
		wg      sync.WaitGroup
		done    atomic.Bool
		queries atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := range writes {
			doc := fmt.Sprintf("<n%d><m><k%d/></m></n%d>", i, i, i)
			op, err := db.AddOp(doc)
			if err == nil {
				_, err = ing.Apply(context.Background(), []Op{op})
			}
			if err != nil {
				t.Errorf("writer %s: %v", doc, err)
				return
			}
		}
	}()
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				v := db.View()
				for _, text := range texts {
					res, err := v.Query(text)
					if err == nil {
						var scan Result
						if scan, err = v.Query(text, ScanOnly()); err == nil && res.Count != scan.Count {
							err = fmt.Errorf("%d results, a scan of the same view %d", res.Count, scan.Count)
						}
					}
					if err != nil {
						t.Errorf("reader %d, generation %d, %s: %v", r, v.Generation(), text, err)
						_ = v.Close()
						return
					}
				}
				_ = v.Close()
				queries.Add(1)
			}
		}()
	}
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("zero reader iterations")
	}
	if res, err := db.Query("//m"); err != nil || res.Count != writes {
		t.Errorf("//m after the writes = %+v, %v; want %d", res, err, writes)
	}
}

// TestTracePlanCached: the second query of a text is served from the
// plan cache — its trace says so and reads zero parse and plan time — and
// the metrics count one miss, then one hit.
func TestTracePlanCached(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	const q = "//article[author]/title"
	m0 := db.Metrics()
	first, err := db.Query(q, Trace())
	if err != nil {
		t.Fatal(err)
	}
	m1 := db.Metrics()
	second, err := db.Query(q, Trace())
	if err != nil {
		t.Fatal(err)
	}
	m2 := db.Metrics()
	if first.Trace.PlanCached || !second.Trace.PlanCached {
		t.Errorf("plan_cached = %t then %t, want false then true", first.Trace.PlanCached, second.Trace.PlanCached)
	}
	if second.Trace.Parse != 0 || second.Trace.Plan != 0 {
		t.Errorf("a cached plan reads parse %v, plan %v; want 0", second.Trace.Parse, second.Trace.Plan)
	}
	if first.Count != second.Count || first.Candidates != second.Candidates {
		t.Errorf("cached %+v, fresh %+v", second, first)
	}
	if !strings.Contains(second.Trace.String(), "plan: cached") {
		t.Errorf("the trace's text does not say the plan was cached:\n%s", second.Trace)
	}
	if m1.PlanCacheMisses-m0.PlanCacheMisses != 1 || m1.PlanCacheHits != m0.PlanCacheHits ||
		m2.PlanCacheHits-m1.PlanCacheHits != 1 || m2.PlanCacheMisses != m1.PlanCacheMisses {
		t.Errorf("hits/misses %d/%d -> %d/%d -> %d/%d, want one miss then one hit",
			m0.PlanCacheHits, m0.PlanCacheMisses, m1.PlanCacheHits, m1.PlanCacheMisses, m2.PlanCacheHits, m2.PlanCacheMisses)
	}
}
