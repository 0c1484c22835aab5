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
//
// A visit costs a countdown: charge decrements left, and only when it
// reaches zero — at a budgetChunk boundary or at the limit — does refill
// poll the context and decide what the next stretch of visits may be.
type Budget struct {
	ctx   context.Context // nil: never polled
	limit int64           // visits allowed; <= 0 means unlimited
	stop  int64           // visits charged once left reaches 0
	left  int64           // visits charge may still grant before refill
}

// NewBudget returns a budget of maxNodes refinement-node visits drawn
// against ctx. maxNodes <= 0 means unlimited: only the context is
// enforced. A nil *Budget passed to EvalBudget disables both checks.
func NewBudget(ctx context.Context, maxNodes int64) *Budget {
	return &Budget{ctx: ctx, limit: maxNodes}
}

// charge accounts one node visit. It returns the context's error once
// the deadline has passed, and ErrBudget once limit visits have been
// charged. It is small enough to inline; refill is its slow path.
func (b *Budget) charge() error {
	if b.left > 0 {
		b.left--
		return nil
	}
	return b.refill()
}

// refill runs when every visit up to stop has been charged: on a
// budgetChunk boundary it polls the context, at the limit it fails, and
// otherwise it grants visits up to the next boundary or the limit,
// whichever comes first, charging the current one.
func (b *Budget) refill() error {
	charged := b.stop
	if charged%budgetChunk == 0 && b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	if b.limit > 0 && charged >= b.limit {
		return ErrBudget
	}
	next := charged - charged%budgetChunk + budgetChunk
	if b.limit > 0 && next > b.limit {
		next = b.limit
	}
	b.stop, b.left = next, next-charged-1
	return nil
}
