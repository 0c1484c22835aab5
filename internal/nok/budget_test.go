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
	// query, not per candidate, and it charges exactly the nodes visited
	// — the unspent part of a prepaid chunk goes back — so a budget of
	// two evaluations' visits admits two evaluations and not a third.
	q, cur := compileOn(t, wideDoc(100), "/r/a/b")
	_, visited := q.Eval(cur, 0)
	if visited%budgetChunk == 0 {
		t.Fatalf("fixture visits %d nodes, a whole number of chunks: it would not exercise the refund", visited)
	}
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

func TestBudgetTakeGrantsAtMostChunk(t *testing.T) {
	b := NewBudget(context.Background(), budgetChunk*3)
	total := int64(0)
	for {
		grant, err := b.take()
		if errors.Is(err, ErrBudget) {
			break
		}
		if err != nil {
			t.Fatalf("take: %v", err)
		}
		if grant <= 0 || grant > budgetChunk {
			t.Fatalf("grant = %d, want in (0, %d]", grant, budgetChunk)
		}
		total += grant
	}
	if total != budgetChunk*3 {
		t.Fatalf("total granted = %d, want %d", total, budgetChunk*3)
	}
}
