package nok

import (
	"context"
	"errors"
)

// ErrBudget reports that an evaluation ran out of refinement-node
// budget. The caller decides what that means — the index core maps it
// onto its typed query-budget error.
var ErrBudget = errors.New("nok: refinement node budget exceeded")

// budgetChunk is how many node visits pass between two polls of the
// budget's context, so cancellation is noticed within budgetChunk visits
// even inside one huge subtree without reading the context per node.
const budgetChunk = 64

// Budget caps the total refinement work of one query across all of its
// candidate evaluations, which run one after another on the query's
// goroutine; a Budget is not safe for concurrent use.
//
// A Budget also carries the query's context. Even an unlimited budget
// polls ctx.Err() on the first visit and once every budgetChunk visits
// after that, which is what lets a deadline or a cancellation interrupt
// the evaluation of a single large subtree instead of waiting for the
// next record boundary.
type Budget struct {
	ctx     context.Context
	limit   int64 // visits allowed; <= 0 means unlimited
	charged int64 // visits charged so far
}

// NewBudget returns a budget of maxNodes refinement-node visits drawn
// against ctx. maxNodes <= 0 means unlimited: only the context is
// enforced. A nil *Budget passed to EvalBudget disables both checks and
// costs one predictable branch per node — the default, ungoverned path.
func NewBudget(ctx context.Context, maxNodes int64) *Budget {
	return &Budget{ctx: ctx, limit: maxNodes}
}

// charge accounts one node visit. It returns the context's error once
// the deadline has passed, and ErrBudget once limit visits have been
// charged.
func (b *Budget) charge() error {
	if b.charged%budgetChunk == 0 {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	if b.limit > 0 && b.charged >= b.limit {
		return ErrBudget
	}
	b.charged++
	return nil
}
