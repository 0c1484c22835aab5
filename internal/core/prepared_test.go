package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// planBits renders what a plan gives the probe with every float as its
// bits, so two plans render alike exactly when they are bit-identical.
func planBits(p *queryPlan) string {
	if p == nil {
		return "not covered"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "label %d ok %t empty %t", p.topLabel, p.labelOK, p.empty)
	for _, f := range p.feats {
		fmt.Fprintf(&b, " [%x %t]", math.Float64bits(f.Sigma), f.Oversize)
	}
	return b.String()
}

// checkCached is the plan cache's differential: q's text, prepared twice
// through g's index, must come from the cache the second time, carry the
// plan a fresh plan computes now, and answer what the fresh path
// answered (want).
func checkCached(g *Generation, q *xpath.Path, want Result) error {
	text := q.String()
	first, err := g.Prepare(text, nil)
	if err != nil {
		return fmt.Errorf("%s: prepare: %w", text, err)
	}
	pq, err := g.Prepare(text, nil)
	if err != nil {
		return fmt.Errorf("%s: prepare again: %w", text, err)
	}
	if pq != first {
		return fmt.Errorf("%s: the second lookup planned again", text)
	}
	fresh, err := g.ix.plan(q.Tree())
	if err != nil {
		return fmt.Errorf("%s: fresh plan: %w", text, err)
	}
	if got, want := planBits(pq.plan), planBits(fresh); got != want {
		return fmt.Errorf("%s: cached plan %s, fresh plan %s", text, got, want)
	}
	got, err := g.QueryPrepared(context.Background(), pq, nil, Limits{})
	if err != nil {
		return fmt.Errorf("%s: cached: %w", text, err)
	}
	if got != want {
		return fmt.Errorf("%s: cached plan answers %+v, a fresh one %+v", text, got, want)
	}
	return nil
}

// planMisses reads the process-wide plan-cache miss counter: each miss
// that parses is one plan. No test of this package runs in parallel, so a
// test's delta is its own.
func planMisses() int64 { return obs.Default().Snapshot().PlanCacheMisses }

// TestPlanCacheNewPair adds a document whose only novelty is one label
// pair (b, d). Every lookup of the query's plan succeeded before — the
// query's own pairs were all there — but shrinkToVerified keeps the
// pattern's d only while (b, d) is absent, so the pair shrinks the
// verified-exact pattern and changes the plan. The cache must plan again,
// exactly once, and equal a fresh plan; 100 repeats before and after plan
// nothing more.
func TestPlanCacheNewPair(t *testing.T) {
	const text = "//a[b[c[d]]]"
	for _, opts := range []Options{{}, {Values: true}} {
		t.Run(fmt.Sprintf("k=0,values=%t", opts.Values), func(t *testing.T) {
			st, ix := buildCollection(t, []string{`<a><b><c><d>v</d></c></b></a>`}, opts)
			q := xpath.MustParse(text)
			prepare := func() *Prepared {
				t.Helper()
				g := freeze(t, ix)
				misses := planMisses()
				pq, err := g.Prepare(text, nil)
				if err != nil {
					t.Fatal(err)
				}
				for range 100 {
					again, err := g.Prepare(text, nil)
					if err != nil || again != pq {
						t.Fatalf("repeat = %p, %v; want the cached %p", again, err, pq)
					}
				}
				if d := planMisses() - misses; d > 1 {
					t.Fatalf("101 lookups planned %d times", d)
				}
				fresh, err := ix.plan(q.Tree())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := planBits(pq.plan), planBits(fresh); got != want {
					t.Fatalf("cached plan %s, fresh plan %s", got, want)
				}
				res, err := g.QueryPrepared(context.Background(), pq, nil, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				if _, want := bruteCount(t, st, q); res.Count != want {
					t.Fatalf("%s = %d, scan %d", text, res.Count, want)
				}
				return pq
			}
			before := prepare()

			n, err := xmltree.ParseString(`<b><d/></b>`)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := st.AppendTree(n)
			if err != nil {
				t.Fatal(err)
			}
			pairs, labels := ix.enc.Len(), ix.dict.Len()
			if err := ix.InsertDocuments(rec); err != nil {
				t.Fatal(err)
			}
			if ix.enc.Len() != pairs+1 || ix.dict.Len() != labels {
				t.Fatalf("fixture: the document brought %d pairs and %d labels, want 1 and 0", ix.enc.Len()-pairs, ix.dict.Len()-labels)
			}
			misses := planMisses()
			after := prepare()
			if d := planMisses() - misses; d != 1 {
				t.Errorf("one new pair: %d plans, want 1", d)
			}
			if planBits(after.plan) == planBits(before.plan) {
				t.Errorf("fixture: the new pair left the plan as it was (%s)", planBits(before.plan))
			}
		})
	}
}

// TestPlanCacheNewLabel: a text naming a label no document has plans
// empty; once a document brings the label, the same text must plan again
// and find it.
func TestPlanCacheNewLabel(t *testing.T) {
	st, ix := buildCollection(t, bibDocs, Options{})
	const text = "/x[y]"
	count := func() int {
		t.Helper()
		g := freeze(t, ix)
		pq, err := g.Prepare(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.QueryPrepared(context.Background(), pq, nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Count
	}
	if got := count(); got != 0 {
		t.Fatalf("%s before any x = %d", text, got)
	}
	n, err := xmltree.ParseString(`<x><y/></x>`)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.AppendTree(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDocuments(rec); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 1 {
		t.Fatalf("%s after adding <x><y/></x> = %d, want 1", text, got)
	}
}

// TestPlanCacheCapacity prepares 1 000 distinct texts — the key is the
// raw text, so spacing makes them distinct — and checks the map never
// grows past planCacheSize and every answer is the fresh one.
func TestPlanCacheCapacity(t *testing.T) {
	_, ix := buildCollection(t, bibDocs, Options{})
	g := freeze(t, ix)
	templates := []string{"//author%s[email]", "/article%s[title]", "//book%s/title"}
	want := map[string]Result{}
	for _, tmpl := range templates {
		text := fmt.Sprintf(tmpl, "")
		res, err := g.QueryPrepared(context.Background(), prepare(t, g, xpath.MustParse(text)), nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		want[tmpl] = res
	}
	for i := range 1000 {
		tmpl := templates[i%len(templates)]
		text := fmt.Sprintf(tmpl, strings.Repeat(" ", i/len(templates)))
		pq, err := g.Prepare(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.QueryPrepared(context.Background(), pq, nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if res != want[tmpl] {
			t.Fatalf("%q = %+v, want %+v", text, res, want[tmpl])
		}
		ix.plansMu.Lock()
		size := len(ix.plans)
		ix.plansMu.Unlock()
		if size > planCacheSize || size != min(i+1, planCacheSize) {
			t.Fatalf("after %d texts the cache holds %d, want %d", i+1, size, min(i+1, planCacheSize))
		}
	}
}

// TestPlanCacheSkipsErrors: a text that does not parse is not cached, and
// a query deeper than the depth limit is prepared for the scan.
func TestPlanCacheSkipsErrors(t *testing.T) {
	_, ix := buildSingleDoc(t, deepDoc, Options{DepthLimit: 2})
	g := freeze(t, ix)
	if _, err := g.Prepare("//a[", nil); err == nil {
		t.Fatal("a malformed text prepared")
	}
	pq, err := g.Prepare("//proceedings[booktitle]/title[sup][i]", nil)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Covered() {
		t.Error("a depth-3 query is covered by a depth-2 index")
	}
	ix.plansMu.Lock()
	defer ix.plansMu.Unlock()
	if _, ok := ix.plans["//a["]; ok || len(ix.plans) != 1 {
		t.Errorf("cache holds %d entries (the malformed text: %t), want only the deep query", len(ix.plans), ok)
	}
}
