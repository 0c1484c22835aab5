package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/xpath"
)

// pollCtx is a context whose Err reports nothing for its first quiet
// polls and err from then on, so a test can make a deadline pass, or a
// cancellation arrive, at a chosen poll of a refinement pass.
type pollCtx struct {
	context.Context
	quiet, polls int
	err          error
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.quiet {
		return c.err
	}
	return nil
}

// wideDocIndexes indexes one document of n <a><b/></a> pairs whole (one
// candidate of 2n+1 nodes for //a/b), and one of n <a> elements at depth 3
// (one candidate per <a> for //a[b]), whose children are <b/><c/> and
// <c/><b/> by turns: two visits and three. Their units differ in child
// order, so no chunk's units agree below the root and no candidate takes
// another's match: every one is charged to the budget.
func wideDocIndexes(t *testing.T, n int) (whole, depth3 *Generation) {
	t.Helper()
	docs := []string{
		"<r>" + strings.Repeat("<a><b/></a>", n) + "</r>",
		"<r>" + strings.Repeat("<a><b/><c/></a><a><c/><b/></a>", n/2) + "</r>",
	}
	for i, opts := range []Options{{}, {DepthLimit: 3}} {
		ix, err := Build(memStoreFromDocs(t, []string{docs[i]}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			whole = freeze(t, ix)
		} else {
			depth3 = freeze(t, ix)
		}
	}
	return whole, depth3
}

// TestRefineNodeLimitIsExact: a budget of N node visits allows exactly N,
// the next one fails the query with ErrBudgetExceeded — at and around the
// budget's 64-visit chunk boundaries, inside one large candidate and
// across many small ones — and a budget of exactly the query's visits
// lets it finish.
func TestRefineNodeLimitIsExact(t *testing.T) {
	whole, depth3 := wideDocIndexes(t, 200)
	for _, tc := range []struct {
		name string
		g    *Generation
		q    string
	}{
		{"one candidate", whole, "//a/b"},
		{"a candidate per element", depth3, "//a[b]"},
	} {
		q := prepare(t, tc.g, xpath.MustParse(tc.q))
		full := &obs.Trace{}
		want, err := tc.g.QueryPrepared(context.Background(), q, full, Limits{})
		if err != nil || want.Count != 200 || want.SharedMatches != 0 || full.NodesVisited <= 131 {
			t.Fatalf("%s: unlimited %s = %+v, %d visits, %v; want 200 results over more than 131 visits", tc.name, tc.q, want, full.NodesVisited, err)
		}
		for _, limit := range []int64{1, 63, 64, 65, 130, full.NodesVisited - 1} {
			tr := &obs.Trace{}
			_, err := tc.g.QueryPrepared(context.Background(), q, tr, Limits{MaxRefineNodes: limit})
			if !errors.Is(err, ErrBudgetExceeded) || tr.NodesVisited != limit {
				t.Errorf("%s: MaxRefineNodes %d: %d visits, %v; want exactly %d, then ErrBudgetExceeded", tc.name, limit, tr.NodesVisited, err, limit)
			}
		}
		got, err := tc.g.QueryPrepared(context.Background(), q, nil, Limits{MaxRefineNodes: full.NodesVisited})
		if err != nil || got.Count != want.Count {
			t.Errorf("%s: MaxRefineNodes of the query's own %d visits = %+v, %v; want %+v", tc.name, full.NodesVisited, got, err, want)
		}
	}
}

// TestDeadlineFailsPassOfTombstones: a deadline that passes during a
// refinement pass whose every candidate is tombstoned — so no node visit
// polls the context — still fails the query, and the Exists check, with
// DeadlineExceeded: the loop polls once more at the end.
func TestDeadlineFailsPassOfTombstones(t *testing.T) {
	st, ix := buildCollection(t, bibDocs, Options{})
	for rec := range bibDocs {
		if _, err := st.MarkDeleted(uint32(rec)); err != nil {
			t.Fatal(err)
		}
	}
	g := freeze(t, ix)
	q := prepare(t, g, xpath.MustParse("//author"))
	res, err := g.QueryPrepared(context.Background(), q, nil, Limits{})
	if err != nil || res.Candidates == 0 || res.Count != 0 {
		t.Fatalf("%s over tombstoned records = %+v, %v; want candidates and no result", q.Tree(), res, err)
	}
	late := func() *pollCtx {
		return &pollCtx{Context: context.Background(), quiet: 1, err: context.DeadlineExceeded}
	}
	if _, err := g.QueryPrepared(late(), q, nil, Limits{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("query whose deadline passed during the pass = %v, want DeadlineExceeded", err)
	}
	if _, err := g.ExistsPrepared(late(), q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Exists whose deadline passed during the pass = %v, want DeadlineExceeded", err)
	}
}

// TestCancelInsideOneSubtree: a cancellation that arrives while the
// matcher walks one large candidate is noticed at the next 64-visit
// chunk boundary, on the Query path and on the Exists path. The context
// is quiet for two polls — the loop's, before the only candidate, and the
// budget's, on its first visit — so the third, at visit 65, must stop the
// walk: 64 visits, not the candidate's 401, and no further poll.
func TestCancelInsideOneSubtree(t *testing.T) {
	whole, _ := wideDocIndexes(t, 200)
	q := prepare(t, whole, xpath.MustParse("//a/b"))
	ctx := &pollCtx{Context: context.Background(), quiet: 2, err: context.Canceled}
	tr := &obs.Trace{}
	if _, err := whole.QueryPrepared(ctx, q, tr, Limits{}); !errors.Is(err, context.Canceled) || tr.NodesVisited != 64 || ctx.polls != 3 {
		t.Errorf("query cancelled inside its candidate: %v after %d visits and %d polls, want Canceled after 64 visits and 3 polls", err, tr.NodesVisited, ctx.polls)
	}
	ctx = &pollCtx{Context: context.Background(), quiet: 2, err: context.Canceled}
	if hit, err := whole.ExistsPrepared(ctx, q); !errors.Is(err, context.Canceled) || ctx.polls != 3 {
		t.Errorf("Exists cancelled inside its candidate = %v, %v after %d polls, want Canceled after 3", hit, err, ctx.polls)
	}
}
