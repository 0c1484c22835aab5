package fix

import (
	"fmt"
	"strings"
	"time"

	"github.com/fix-index/fix/internal/obs"
)

// QueryTrace is the full execution trace of one query: wall time per
// pipeline phase plus the counters each phase produced. Request one with
// the Trace query option (it comes back on Result.Trace), or receive
// them through Options.OnSlowQuery.
//
// The phases are the pipeline of the paper's Algorithm 2: Parse (XPath
// text to query tree), Plan (//-decomposition and feature computation),
// Probe (the B-tree eigenvalue range scan — pruning), Fetch (candidate
// pointer dereferences into storage), Refine (NoK navigational
// verification). A query runs on its caller's goroutine, so the phases
// add up to at most Total.
//
// The counters reconcile with the paper's §6.2 quantities: Entries is
// ent, Candidates + SketchPruned is cdt, Matched is rst, so for one query
// sel = 1 - Matched/Entries, pp = 1 - cdt/Entries and fpr = 1 - Matched/cdt
// (and with Candidates in place of cdt, those of the feature filter and
// the pair sketch together). docs/OBSERVABILITY.md walks through a
// complete example.
type QueryTrace struct {
	// Query is the XPath text as given.
	Query string `json:"query"`
	// Start is when evaluation began; Total the end-to-end wall time.
	Start time.Time     `json:"start"`
	Total time.Duration `json:"total_ns"`

	// Per-phase wall time.
	Parse  time.Duration `json:"parse_ns"`
	Plan   time.Duration `json:"plan_ns"`
	Probe  time.Duration `json:"probe_ns"`
	Fetch  time.Duration `json:"fetch_ns"`
	Refine time.Duration `json:"refine_ns"`

	// Entries is the number of index entries (ent); Scanned how many
	// the range scan touched; Candidates how many survived the feature
	// filter and their chunk's pair sketch, and were refined;
	// SketchPruned how many the feature filter kept and the sketch
	// dropped; SharedMatches how many candidates took the answer of their
	// chunk's first match instead of a fetch and a match of their own;
	// Matched how many produced at least one result (rst); Count the total
	// output-node matches.
	Entries       int `json:"entries"`
	Scanned       int `json:"scanned"`
	Candidates    int `json:"candidates"`
	SketchPruned  int `json:"sketch_pruned"`
	SharedMatches int `json:"shared_matches"`
	Matched       int `json:"matched"`
	Count         int `json:"count"`

	// NodesVisited is the nodes the NoK matcher's pruned pass decoded
	// (refinement work).
	NodesVisited int64 `json:"nodes_visited"`

	// B-tree page traffic of the probe phase. CacheHits are the pages the
	// probe accessed: the index image is resident, so every access is a
	// hit, and PageReads and PageWrites — pages moved from and to
	// fix.btree, which Open and a checkpoint do — are zero for a query.
	PageReads  int64 `json:"page_reads"`
	PageWrites int64 `json:"page_writes"`
	CacheHits  int64 `json:"cache_hits"`

	// Record-heap activity of fetch + refinement, in the storage layer's
	// accounting.
	SeqReads     int64 `json:"seq_reads"`
	RandomReads  int64 `json:"random_reads"`
	CachedReads  int64 `json:"cached_reads"`
	BytesRead    int64 `json:"bytes_read"`
	SubtreeReads int64 `json:"subtree_reads"`
	SubtreeBytes int64 `json:"subtree_bytes"`

	// ScanFallback reports a degraded index answered by full scan; the
	// pruning counters are then zero. Entries == 0 with ScanFallback
	// false means the query ran without (or not covered by) an index.
	ScanFallback bool `json:"scan_fallback"`

	// PlanCached reports that the query's parsed, planned and compiled
	// form came from the index's plan cache, which is why Parse and Plan
	// read zero. A miss prepares the query and caches it: Parse and Plan
	// are then that work (Plan includes compiling the refinement matcher).
	PlanCached bool `json:"plan_cached"`

	// Generation is the publish sequence number of the snapshot the
	// query ran against (see DB.View), so traces collected across a
	// concurrent Save/RebuildIndex attribute to the right index image.
	Generation uint64 `json:"generation"`

	// Collection and Shard attribute the trace to one shard of a sharded
	// collection (internal/collection): Collection is the collection
	// name, Shard the zero-based shard index. They are filled by the
	// collection layer — a trace from a plain DB has Collection == ""
	// and Shard == -1 is never used (the zero value 0 with an empty
	// Collection means "not sharded"). Slow-query log lines include them
	// so operators can attribute hot shards.
	Collection string `json:"collection,omitempty"`
	Shard      int    `json:"shard,omitempty"`
}

// String formats the trace as a compact human-readable block, the form
// fixindex -trace prints and the slow-query log examples use.
func (t *QueryTrace) String() string {
	var b strings.Builder
	if t.Collection != "" {
		fmt.Fprintf(&b, "query %s  [collection %s shard %d]\n", t.Query, t.Collection, t.Shard)
	} else {
		fmt.Fprintf(&b, "query %s\n", t.Query)
	}
	fmt.Fprintf(&b, "  total %v  (parse %v, plan %v, probe %v, fetch %v, refine %v)\n",
		t.Total, t.Parse, t.Plan, t.Probe, t.Fetch, t.Refine)
	if t.PlanCached {
		b.WriteString("  plan: cached\n")
	}
	switch {
	case t.ScanFallback:
		fmt.Fprintf(&b, "  degraded index: full scan, %d matched records, %d results\n", t.Matched, t.Count)
	case t.Entries == 0:
		fmt.Fprintf(&b, "  no index: full scan, %d matched records, %d results\n", t.Matched, t.Count)
	default:
		fmt.Fprintf(&b, "  pruning: %d entries, %d scanned -> %d candidates (%d dropped by the sketch) -> %d matched, %d results\n",
			t.Entries, t.Scanned, t.Candidates, t.SketchPruned, t.Matched, t.Count)
	}
	fmt.Fprintf(&b, "  btree: %d page reads, %d cache hits\n", t.PageReads, t.CacheHits)
	fmt.Fprintf(&b, "  storage: %d seq + %d random + %d cached reads, %d bytes; %d subtree reads, %d subtree bytes\n",
		t.SeqReads, t.RandomReads, t.CachedReads, t.BytesRead, t.SubtreeReads, t.SubtreeBytes)
	fmt.Fprintf(&b, "  refine: %d nodes visited, %d candidates answered by their chunk's first match", t.NodesVisited, t.SharedMatches)
	return b.String()
}

// traceFromObs converts the internal trace into the public form.
func traceFromObs(tr *obs.Trace) *QueryTrace {
	return &QueryTrace{
		Query:         tr.Query,
		Start:         tr.Start,
		Total:         tr.Total,
		Parse:         tr.Phase[obs.PhaseParse],
		Plan:          tr.Phase[obs.PhasePlan],
		Probe:         tr.Phase[obs.PhaseProbe],
		Fetch:         tr.Phase[obs.PhaseFetch],
		Refine:        tr.Phase[obs.PhaseRefine],
		Entries:       tr.Entries,
		Scanned:       tr.Scanned,
		Candidates:    tr.Candidates,
		SketchPruned:  tr.SketchPruned,
		SharedMatches: tr.SharedMatches,
		Matched:       tr.Matched,
		Count:         tr.Count,
		NodesVisited:  tr.NodesVisited,
		PageReads:     tr.BTree.PageReads,
		PageWrites:    tr.BTree.PageWrites,
		CacheHits:     tr.BTree.CacheHits,
		SeqReads:      tr.Storage.SeqReads,
		RandomReads:   tr.Storage.RandomReads,
		CachedReads:   tr.Storage.CachedReads,
		BytesRead:     tr.Storage.BytesRead,
		SubtreeReads:  tr.Storage.SubtreeReads,
		SubtreeBytes:  tr.Storage.SubtreeBytes,
		ScanFallback:  tr.Fallback,
		PlanCached:    tr.PlanCached,
		Generation:    tr.Generation,
	}
}

// A QueryOption configures one query evaluation. The same option set is
// accepted uniformly by every query method — Query, Exists,
// QueryDocuments and their Ctx variants, on both DB and View. The
// canonical constructors are Trace, ScanOnly and QueryLimits (in
// options.go, mirroring the BuildOption set).
type QueryOption func(*queryConfig)

type queryConfig struct {
	trace     bool
	limits    Limits
	limitsSet bool // limits overrides the DB-wide Options.Limits
	scanOnly  bool
}

// Options configures the observability and resource-governance behavior
// of a DB. Set it with SetOptions before serving queries; it is not safe
// to change concurrently with running queries.
type Options struct {
	// SlowQueryThreshold enables the slow-query log: every query whose
	// total wall time reaches the threshold is reported to OnSlowQuery
	// with its full trace. Zero disables the log. Enabling it turns on
	// trace collection for every query on this DB (a query is only
	// known to be slow after it ran).
	SlowQueryThreshold time.Duration
	// OnSlowQuery receives the trace of each offending query. It is
	// called synchronously on the querying goroutine, so it must be
	// fast and safe for concurrent calls; nil disables the log.
	OnSlowQuery func(QueryTrace)
	// Limits are the default resource limits applied to every query on
	// this DB. A query's QueryLimits option replaces them wholesale for
	// that query. The zero value imposes nothing.
	Limits Limits
	// ParseLimits bounds documents accepted by AddDocument; zero fields
	// keep the parser defaults, negative fields disable a bound.
	ParseLimits ParseLimits
}

// SetOptions installs observability options; see Options.
func (db *DB) SetOptions(o Options) { db.obsOpts = o }

// slowQueryEnabled reports whether every query must gather a trace for
// the slow-query log.
func (db *DB) slowQueryEnabled() bool {
	return db.obsOpts.SlowQueryThreshold > 0 && db.obsOpts.OnSlowQuery != nil
}
