package nok

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// wideDoc builds a document with n <b/> leaves under <a> elements, big
// enough that evaluation visits well over one budget chunk of nodes.
func wideDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<a><b/></a>")
	}
	sb.WriteString("</r>")
	return sb.String()
}

func TestEvalBudgetMatchesEval(t *testing.T) {
	q, cur := compileOn(t, wideDoc(100), "//a/b")
	wantCount, wantVisited := q.Eval(cur, 0)
	b := NewBudget(context.Background(), 1<<20)
	count, visited, err := q.EvalBudget(cur, 0, b)
	if err != nil {
		t.Fatalf("EvalBudget under ample budget: %v", err)
	}
	if count != wantCount || visited != wantVisited {
		t.Fatalf("EvalBudget = (%d, %d), Eval = (%d, %d); budgeted path must not change results",
			count, visited, wantCount, wantVisited)
	}
}

func TestEvalBudgetNilBudgetIsEval(t *testing.T) {
	q, cur := compileOn(t, wideDoc(10), "//a/b")
	wantCount, wantVisited := q.Eval(cur, 0)
	count, visited, err := q.EvalBudget(cur, 0, nil)
	if err != nil {
		t.Fatalf("EvalBudget(nil): %v", err)
	}
	if count != wantCount || visited != wantVisited {
		t.Fatalf("EvalBudget(nil) = (%d, %d), want (%d, %d)", count, visited, wantCount, wantVisited)
	}
}

func TestEvalBudgetExhaustion(t *testing.T) {
	q, cur := compileOn(t, wideDoc(500), "//a/b")
	b := NewBudget(context.Background(), 1)
	_, _, err := q.EvalBudget(cur, 0, b)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("EvalBudget under budget 1 = %v, want ErrBudget", err)
	}
}

func TestEvalBudgetSharedAcrossEvaluations(t *testing.T) {
	// One budget drawn down by successive evaluations: the cap is per
	// query, not per candidate, and it charges exactly the nodes visited,
	// so a budget of two evaluations' visits admits two evaluations and
	// not a third.
	q, cur := compileOn(t, wideDoc(100), "/r/a/b")
	_, visited := q.Eval(cur, 0)
	b := NewBudget(context.Background(), 2*int64(visited))
	for i := 0; i < 2; i++ {
		if _, _, err := q.EvalBudget(cur, 0, b); err != nil {
			t.Fatalf("evaluation %d within the budget: %v", i+1, err)
		}
	}
	_, _, err := q.EvalBudget(cur, 0, b)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("third evaluation on drained budget = %v, want ErrBudget", err)
	}
}

func TestEvalBudgetObservesCancellation(t *testing.T) {
	q, cur := compileOn(t, wideDoc(500), "//a/b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBudget(ctx, 0) // unlimited nodes: only the context stops it
	_, _, err := q.EvalBudget(cur, 0, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalBudget under cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestEvalBudgetExactAtLimit(t *testing.T) {
	// The budget is exhausted at exactly its limit: an evaluation that
	// visits n nodes fits a budget of n and fails one of n-1.
	q, cur := compileOn(t, wideDoc(100), "//a/b")
	wantCount, visited := q.Eval(cur, 0)
	count, _, err := q.EvalBudget(cur, 0, NewBudget(context.Background(), int64(visited)))
	if err != nil || count != wantCount {
		t.Fatalf("EvalBudget under a budget of its %d visits = (%d, %v), want (%d, nil)", visited, count, err, wantCount)
	}
	_, got, err := q.EvalBudget(cur, 0, NewBudget(context.Background(), int64(visited-1)))
	if !errors.Is(err, ErrBudget) || got != visited-1 {
		t.Fatalf("EvalBudget under a budget of %d = (%d visits, %v), want (%d, ErrBudget)", visited-1, got, err, visited-1)
	}
}
