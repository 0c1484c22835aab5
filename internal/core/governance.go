package core

import (
	"errors"
	"fmt"

	"github.com/fix-index/fix/internal/nok"
)

// ErrBudgetExceeded reports that a query was stopped because it hit one
// of its resource limits (candidate cap, result cap, or refinement-node
// budget). The wrapped message names the exhausted dimension. It is the
// resource-governance complement of a deadline: budgets bound work,
// deadlines bound time, and both produce typed errors instead of letting
// one query monopolize the process.
var ErrBudgetExceeded = errors.New("core: query budget exceeded")

// Limits caps what one query may consume. The zero value imposes no
// limits and adds no work to the query pipeline beyond one nil/zero
// check per phase — governance is strictly opt-in per query.
type Limits struct {
	// MaxRefineNodes caps the nodes the NoK refinement pass may visit
	// across all candidates of the query (the nodes_visited unit of the
	// observability layer: nodes the pruned matcher decodes, not
	// candidate subtree sizes). 0 means unlimited.
	MaxRefineNodes int64
	// MaxCandidates caps how many entries may survive the feature
	// filter; the range scan stops early once the cap is crossed. A
	// query with more candidates than this would spend its time in
	// refinement anyway — rejecting it at the probe phase is cheaper.
	// 0 means unlimited.
	MaxCandidates int
	// MaxResults caps the total output-node matches; refinement stops
	// early once the running total crosses the cap. 0 means unlimited.
	MaxResults int
}

// budgetErr maps a nok budget exhaustion onto the typed core error;
// context errors (deadline, cancellation) pass through unchanged so
// callers see the standard context sentinels.
func budgetErr(err error) error {
	if errors.Is(err, nok.ErrBudget) {
		return fmt.Errorf("%w: refinement nodes", ErrBudgetExceeded)
	}
	return err
}

// errResultCap checks the running output-match total against
// MaxResults; crossing the cap returns the typed budget error, which
// stops refinement. The final total is a sum of non-negative counts, so
// any partial sum over the cap proves the full query would exceed it too.
func errResultCap(total int, lim Limits) error {
	if lim.MaxResults > 0 && total > lim.MaxResults {
		return fmt.Errorf("%w: results %d exceed limit %d", ErrBudgetExceeded, total, lim.MaxResults)
	}
	return nil
}
