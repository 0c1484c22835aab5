package fix

import "context"

// A BuildOption configures one aspect of index construction for
// BuildIndexWith. Options are applied in order to a zero IndexOptions,
// so later options win; omitted aspects keep the paper's defaults. The
// functional form is forward-compatible: adding an option never breaks
// existing callers, unlike positional struct literals.
type BuildOption func(*IndexOptions)

// Workers bounds the worker pool used by index construction; queries do
// not use it. Zero means one worker per available CPU; 1 forces
// sequential execution. The index bytes produced are identical for
// every value.
func Workers(n int) BuildOption {
	return func(o *IndexOptions) { o.Workers = n }
}

// DepthLimit sets Algorithm 1's subpattern depth limit L: one depth-L
// subpattern is indexed per element. Use it for large documents; the
// paper uses 6.
func DepthLimit(l int) BuildOption {
	return func(o *IndexOptions) { o.DepthLimit = l }
}

// Values integrates text nodes into the structural index via hashing
// (paper §4.6), enabling index support for value-equality predicates.
func Values() BuildOption {
	return func(o *IndexOptions) { o.Values = true }
}

// Beta sets the value-hash range β used with Values; zero keeps the
// paper's default of 10.
func Beta(b uint32) BuildOption {
	return func(o *IndexOptions) { o.Beta = b }
}

// EdgeBudget caps the bisimulation graph size for eigenvalue
// computation; zero keeps the paper's default of 3000 edges.
func EdgeBudget(n int) BuildOption {
	return func(o *IndexOptions) { o.EdgeBudget = n }
}

// SpectrumK stores K extra eigenvalue magnitudes per entry and filters
// candidates component-wise (the paper's §3.3 refinement); zero
// disables it.
func SpectrumK(k int) BuildOption {
	return func(o *IndexOptions) { o.SpectrumK = k }
}

// PaperPruning selects the paper's literal pruning bound instead of the
// provably complete default; see DESIGN.md before enabling.
func PaperPruning() BuildOption {
	return func(o *IndexOptions) { o.PaperPruning = true }
}

// BuildIndexWith constructs the FIX index over all stored documents
// using functional options, replacing any previous index:
//
//	err := db.BuildIndexWith(ctx, fix.Workers(8), fix.DepthLimit(6))
//
// It is equivalent to BuildIndexCtx with the IndexOptions the options
// assemble; see BuildIndexCtx for cancellation semantics.
func (db *DB) BuildIndexWith(ctx context.Context, opts ...BuildOption) error {
	var o IndexOptions
	for _, opt := range opts {
		opt(&o)
	}
	return db.BuildIndexCtx(ctx, o)
}

// Canonical query options. Every query method — Query, Exists,
// QueryDocuments and their Ctx variants, on DB and View alike — accepts
// the same QueryOption set, mirroring the BuildOption pattern above.

// Trace requests a full execution trace for this query; it comes back
// on Result.Trace. Tracing costs a few timer reads and counter
// snapshots per query — cheap, but not free, which is why it is
// per-query opt-in. Exists and QueryDocuments accept but ignore it
// (they produce no Result to carry a trace).
func Trace() QueryOption {
	return func(c *queryConfig) { c.trace = true }
}

// ScanOnly forces this query to bypass the index and answer from a
// sequential scan of the primary store. The result is exact — a full
// refinement pass has no false negatives — just slower, and
// Result.ScanFallback is set. It exists for operational degradation:
// cmd/fixserve's circuit breaker routes queries here while the index is
// suspected faulty, trading speed for availability.
func ScanOnly() QueryOption {
	return func(c *queryConfig) { c.scanOnly = true }
}

// QueryLimits sets this query's resource limits, overriding the DB-wide
// Options.Limits entirely (fields are not merged).
func QueryLimits(l Limits) QueryOption {
	return func(c *queryConfig) {
		c.limits = l
		c.limitsSet = true
	}
}
