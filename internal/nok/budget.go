package nok

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrBudget reports that an evaluation ran out of refinement-node
// budget. The caller decides what that means — the index core maps it
// onto its typed query-budget error.
var ErrBudget = errors.New("nok: refinement node budget exceeded")

// budgetChunk is how many node visits an evalState prepays from the
// shared budget at a time. Chunking keeps the shared atomic off the
// per-node path and bounds how stale the deadline check can be: ctx is
// consulted once per chunk, so cancellation is noticed within
// budgetChunk node visits even inside one huge subtree.
const budgetChunk = 64

// Budget caps the total refinement work of one query across all of its
// candidate evaluations. It is shared by the refinement worker pool: the
// remaining count is an atomic, and the context is only read, so any
// number of goroutines may draw from one Budget concurrently.
//
// A Budget also carries the query's context. Even an unlimited budget
// checks ctx.Err() once per chunk, which is what lets a deadline or a
// cancellation interrupt the evaluation of a single large subtree
// instead of waiting for the next record boundary.
type Budget struct {
	ctx       context.Context
	unlimited bool
	remaining atomic.Int64
}

// NewBudget returns a budget of maxNodes refinement-node visits drawn
// against ctx. maxNodes <= 0 means unlimited: only the context is
// enforced. A nil *Budget passed to EvalBudget disables both checks and
// costs one predictable branch per node — the default, ungoverned path.
func NewBudget(ctx context.Context, maxNodes int64) *Budget {
	b := &Budget{ctx: ctx, unlimited: maxNodes <= 0}
	if !b.unlimited {
		b.remaining.Store(maxNodes)
	}
	return b
}

// take prepays up to budgetChunk node visits, returning how many were
// granted. It returns the context's error once the deadline has passed,
// and ErrBudget once the node budget is exhausted.
func (b *Budget) take() (int64, error) {
	if err := b.ctx.Err(); err != nil {
		return 0, err
	}
	if b.unlimited {
		return budgetChunk, nil
	}
	for {
		rem := b.remaining.Load()
		if rem <= 0 {
			return 0, ErrBudget
		}
		grant := rem
		if grant > budgetChunk {
			grant = budgetChunk
		}
		if b.remaining.CompareAndSwap(rem, rem-grant) {
			return grant, nil
		}
	}
}

// refund returns n prepaid but unspent node visits.
func (b *Budget) refund(n int64) {
	if !b.unlimited {
		b.remaining.Add(n)
	}
}
