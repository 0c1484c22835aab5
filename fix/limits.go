package fix

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/par"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// ErrBudgetExceeded reports that a query was stopped by one of its
// resource limits (see Limits); test with errors.Is. The wrapped
// message names the exhausted dimension. A query killed by its deadline
// returns context.DeadlineExceeded instead — budgets bound work,
// deadlines bound time.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// ErrPanic reports that a panic inside the engine was contained by a
// recovery barrier and converted into an error; test with errors.Is.
// After a contained panic the in-memory index is conservatively marked
// degraded (queries keep answering exactly via the scan fallback;
// RebuildIndex restores it), and the panics_recovered counter is
// incremented.
var ErrPanic = errors.New("fix: panic recovered")

// ErrBadQuery reports a syntactically invalid XPath expression; test
// with errors.Is to classify client errors (an HTTP 400) apart from
// engine faults.
var ErrBadQuery = xpath.ErrSyntax

// ErrQueryLimit reports an XPath expression rejected for exceeding the
// query parse limits (length, steps, predicates, nesting).
var ErrQueryLimit = xpath.ErrLimit

// ErrDocumentLimit reports a document rejected by AddDocument for
// exceeding the document parse limits (depth, token size, fan-out,
// node count, total input bytes); see Options.ParseLimits.
var ErrDocumentLimit = xmltree.ErrLimit

// Limits caps what one query may consume. The zero value imposes
// nothing and costs nothing: ungoverned queries run the exact pre-
// governance pipeline. Set per query with QueryLimits, or for every
// query on a DB with Options.Limits.
type Limits struct {
	// Timeout is the per-query deadline. The query's context is wrapped
	// with context.WithTimeout, so expiry surfaces as
	// context.DeadlineExceeded — promptly, even mid-refinement: the
	// refinement loop re-checks the context every few dozen node visits.
	Timeout time.Duration
	// MaxRefineNodes caps the nodes NoK refinement may visit across the
	// whole query (the nodes_visited unit: nodes the pruned matcher
	// actually decodes, not candidate subtree sizes). It is the paper's
	// false-positive problem turned into a control: when the feature
	// filter is unselective, refinement cost explodes, and this is the
	// fuse.
	MaxRefineNodes int64
	// MaxCandidates caps entries surviving the feature filter; the
	// B-tree range scan aborts early once crossed.
	MaxCandidates int
	// MaxResults caps total output-node matches; refinement stops once
	// the running total crosses it.
	MaxResults int
}

// ParseLimits bounds documents accepted by AddDocument, mirroring the
// parser's hardening knobs: zero fields keep the built-in defaults
// (generous, but finite), negative fields disable the bound. See
// docs/ROBUSTNESS.md for the defaults.
type ParseLimits struct {
	MaxDepth      int // element nesting
	MaxTokenBytes int // one element name or text node
	MaxChildren   int // fan-out of one element
	MaxNodes      int // total tree nodes
	MaxBytes      int // total serialized input of one document
}

// limitsFor resolves the effective limits for one query: the per-query
// option wins wholesale, otherwise the DB default.
func (db *DB) limitsFor(cfg *queryConfig) Limits {
	if cfg.limitsSet {
		return cfg.limits
	}
	return db.obsOpts.Limits
}

// coreLimits converts the public limits into the engine's form (the
// deadline is carried by the context instead).
func coreLimits(l Limits) core.Limits {
	return core.Limits{
		MaxRefineNodes: l.MaxRefineNodes,
		MaxCandidates:  l.MaxCandidates,
		MaxResults:     l.MaxResults,
	}
}

// contain is the panic-containment barrier deferred at every public
// entry point: a panic below the API becomes an error wrapping ErrPanic
// instead of crashing the caller's process. A query runs on its caller's
// goroutine, so a panic in refinement unwinds to the recover() here;
// a build's worker-pool panics arrive already converted (par recovers
// them in the worker). contain gives both forms the same accounting —
// the panics_recovered counter — and, when degrade is set, marks the
// index degraded, because a panic mid-query may have left shared
// in-memory state (page table, health bookkeeping) inconsistent. Build
// paths pass degrade=false: the index being replaced was not touched.
func (db *DB) contain(op string, degrade bool, errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("%w: %s: %v\n%s", ErrPanic, op, r, debug.Stack())
	} else if *errp == nil || !errors.Is(*errp, par.ErrPanic) {
		return
	} else {
		*errp = fmt.Errorf("%w: %s: %v", ErrPanic, op, *errp)
	}
	obs.Default().ObservePanicRecovered()
	if ix := db.indexRef(); degrade && ix != nil {
		ix.Degrade(*errp)
		// Republish so generations pinned from now on carry the degraded
		// health and route to the exact scan fallback. Views pinned before
		// the panic keep their (possibly inconsistent) image, but their
		// in-flight queries are already guarded by their own barriers.
		db.publish()
	}
}

// observeQueryError classifies a failed query into the registry's
// rejection counters (on top of the plain query_errors count).
func observeQueryError(err error) {
	reg := obs.Default()
	reg.ObserveQueryError()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		reg.ObserveDeadlineExceeded()
	case errors.Is(err, ErrBudgetExceeded):
		reg.ObserveBudgetExceeded()
	}
}

// parseLimits converts the DB's configured document limits into the
// parser's form.
func (db *DB) parseLimits() xmltree.ParseLimits {
	l := db.obsOpts.ParseLimits
	return xmltree.ParseLimits{
		MaxDepth:      l.MaxDepth,
		MaxTokenBytes: l.MaxTokenBytes,
		MaxChildren:   l.MaxChildren,
		MaxNodes:      l.MaxNodes,
		MaxBytes:      l.MaxBytes,
	}
}
