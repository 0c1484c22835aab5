// Scatter-gather query evaluation. Each targeted shard runs the full
// probe→refine pipeline on its own pinned generation under its own
// deadline; the collection merges per-shard counts in shard order (the
// merge is order-stable: shard i's contribution always precedes shard
// i+1's, regardless of completion order, so repeated queries against an
// unchanged collection produce identical result layouts). A shard that
// misses its deadline or trips a work budget is tolerated: the query
// returns the surviving shards' results marked Partial, with the failed
// shard identified in the per-shard trace — the serving layer's
// equivalent of the engine's graceful degradation (a degraded index
// falls back to an exact scan; a degraded shard falls back to an
// explicit gap).

package collection

import (
	"context"
	"errors"
	"fmt"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/obs"
	"github.com/fix-index/fix/internal/par"
)

// QueryOpts configures one collection query.
type QueryOpts struct {
	// Trace requests a full execution trace from every probed shard.
	Trace bool
	// WithDocuments additionally collects the matching documents' global
	// IDs (shard-order stable, ascending within each shard). It costs a
	// second evaluation on each shard, under the same per-shard deadline
	// and with the same failure handling as the first, so it is meant for
	// tools and tests, not the serving hot path.
	WithDocuments bool
}

// ShardResult is one shard's contribution to a collection query.
type ShardResult struct {
	// Shard is the shard ID; results are always in ascending shard
	// order.
	Shard int `json:"shard"`
	// Count, Entries, Candidates and Matched are the shard's fix.Result
	// counters.
	Count      int `json:"count"`
	Entries    int `json:"entries"`
	Candidates int `json:"candidates"`
	Matched    int `json:"matched"`
	// ScanFallback reports the shard answered exactly through its
	// degraded-index scan fallback: correct results, index speed lost.
	ScanFallback bool `json:"scan_fallback,omitempty"`
	// TimedOut reports the shard was killed by the per-shard deadline;
	// Failed reports any other tolerated error. Either way the shard
	// contributed nothing and the collection result is Partial. Err
	// carries the cause.
	TimedOut bool   `json:"timed_out,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
	Err      string `json:"error,omitempty"`
	// Trace is the shard's execution trace when requested, with
	// Collection and Shard filled in.
	Trace *fix.QueryTrace `json:"trace,omitempty"`
}

// Result is the merged outcome of a collection query.
type Result struct {
	// Count, Entries, Candidates and Matched sum the successful shards'
	// counters.
	Count      int `json:"count"`
	Entries    int `json:"entries"`
	Candidates int `json:"candidates"`
	Matched    int `json:"matched"`
	// Targeted reports the router confined the query to a single shard
	// (absolute /label first step); false means it scattered to all.
	Targeted bool `json:"targeted"`
	// Partial reports at least one probed shard timed out or failed, so
	// Count undercounts the true result. Inspect Shards for the gaps. A
	// shard answering through its scan fallback is NOT partial — those
	// results are exact.
	Partial bool `json:"partial,omitempty"`
	// Degraded reports at least one shard answered via scan fallback.
	Degraded bool `json:"degraded,omitempty"`
	// Shards holds the per-shard outcomes in ascending shard order, one
	// entry per probed shard (one entry for a targeted query).
	Shards []ShardResult `json:"shards"`
	// Documents holds matching documents' global IDs when requested
	// (QueryOpts.WithDocuments), in shard order.
	Documents []uint64 `json:"documents,omitempty"`
}

// Query evaluates an absolute XPath expression against the collection:
// route (one shard or all), probe the targets under per-shard deadlines
// on at most min(targets, GOMAXPROCS) goroutines, merge in shard order.
// A shard probe is CPU work, so more goroutines than CPUs only add their
// start-up and scheduling; on one CPU the targets run in turn on the
// caller's goroutine. A syntactically invalid expression fails the whole
// query with fix.ErrBadQuery; a canceled or expired request context fails
// it with the context error; per-shard deadline and budget kills degrade
// to a Partial result instead.
func (c *Collection) Query(ctx context.Context, expr string, opts QueryOpts) (Result, error) {
	targets := c.shards
	target := queryTarget(expr, len(c.shards))
	if target != ScatterAll {
		targets = c.shards[target : target+1]
	}
	rows := make([]ShardResult, len(targets))
	var docs [][]uint32 // per row, when opts.WithDocuments
	if opts.WithDocuments {
		docs = make([][]uint32, len(targets))
	}
	err := par.Do(ctx, 0, len(targets), func(i int) error {
		var rowDocs *[]uint32
		if docs != nil {
			rowDocs = &docs[i]
		}
		return c.queryShard(ctx, targets[i], expr, opts, &rows[i], rowDocs)
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Targeted: target != ScatterAll, Shards: rows}
	timeouts, failures := 0, 0
	for i, r := range rows {
		res.Count += r.Count
		res.Entries += r.Entries
		res.Candidates += r.Candidates
		res.Matched += r.Matched
		if r.TimedOut {
			timeouts++
		} else if r.Failed {
			failures++
		}
		if r.ScanFallback {
			res.Degraded = true
		}
		if docs != nil {
			for _, rec := range docs[i] {
				res.Documents = append(res.Documents, GlobalID(r.Shard, rec))
			}
		}
	}
	res.Partial = timeouts+failures > 0
	obs.Default().Collection(c.spec.Name).ObserveCollectionQuery(res.Targeted, timeouts, failures)
	return res, nil
}

// shardQueryOptions builds the per-shard option set: the collection's
// work budgets plus tracing when requested. The per-shard deadline is
// NOT part of the limits here — queryShard owns it as a context
// wrapped around the whole shard probe, so stalls before the engine
// sees the query (scheduling, fault-injection seams) count against it
// too.
func (c *Collection) shardQueryOptions(opts QueryOpts) []fix.QueryOption {
	lim := c.opts.limits()
	lim.Timeout = 0
	qopts := []fix.QueryOption{fix.QueryLimits(lim)}
	if opts.Trace {
		qopts = append(qopts, fix.Trace())
	}
	return qopts
}

// queryShard runs one shard's probe under the per-shard deadline and
// classifies the outcome into the shard's result row; a non-nil docs
// gets the shard's matching documents from a second pass under the same
// deadline. It returns a non-nil error only for faults that must fail
// the whole collection query: a bad expression, or the request context
// itself ending. Any other failure of either pass marks the row TimedOut
// or Failed, and the shard contributes nothing.
func (c *Collection) queryShard(ctx context.Context, s *Shard, expr string, opts QueryOpts, row *ShardResult, docs *[]uint32) error {
	row.Shard = s.ID
	sctx := ctx
	if c.opts.ShardTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, c.opts.ShardTimeout)
		defer cancel()
	}
	qopts := c.shardQueryOptions(opts)
	if c.testShardStall != nil {
		c.testShardStall(s.ID)
	}
	res, err := s.DB.QueryCtx(sctx, expr, qopts...)
	if err == nil && docs != nil {
		if c.testShardStall != nil {
			c.testShardStall(s.ID)
		}
		*docs, err = s.DB.QueryDocumentsCtx(sctx, expr, qopts...)
	}
	if res.Trace != nil {
		// A deadline kill with tracing on still yields the partial trace
		// (the phases that ran are attributed); keep it so the gap is
		// diagnosable from the response alone.
		t := *res.Trace
		t.Collection = c.spec.Name
		t.Shard = s.ID
		row.Trace = &t
	}
	if err != nil {
		if errors.Is(err, fix.ErrBadQuery) {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("collection: shard %d: %w", s.ID, ctx.Err())
		}
		row.Err = err.Error()
		if errors.Is(err, context.DeadlineExceeded) || sctx.Err() != nil {
			row.TimedOut = true
		} else {
			row.Failed = true
		}
		return nil
	}
	row.Count = res.Count
	row.Entries = res.Entries
	row.Candidates = res.Candidates
	row.Matched = res.MatchedEntries
	row.ScanFallback = res.ScanFallback
	return nil
}
