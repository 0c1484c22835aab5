// Package obs is the unified observability layer of the FIX index: a
// per-query execution trace (Trace), a process-wide lock-free metrics
// registry (Registry) with a bounded latency histogram, and the expvar
// surface both are exported through.
//
// The paper's entire evaluation (§6) argues with implementation-
// independent accounting — pruning power and false-positive ratio over
// index entries (§6.2), page I/O counts for the runtime comparisons
// (§6.3) — so the trace phases and counters here are named to map
// directly onto those quantities; docs/OBSERVABILITY.md is the
// reference, including the mapping back to §6.2's sel/pp/fpr.
//
// The design rule is "atomics only on hot paths": the registry is a set
// of atomic counters and an atomic-bucket histogram, and a nil *Trace
// disables every snapshot and timer in the query pipeline, so untraced
// queries pay only a handful of atomic adds.
package obs

import "time"

// Phase identifies one stage of the query pipeline, in execution order.
type Phase int

const (
	// PhaseParse is XPath text to query tree (internal/xpath).
	PhaseParse Phase = iota
	// PhasePlan is //-decomposition plus per-twig feature computation
	// (the query side of the paper's Algorithm 2, lines 1-2).
	PhasePlan
	// PhaseProbe is the B-tree eigenvalue range scan — the pruning
	// phase. Its B-tree counters are the page-I/O accounting of §6.3.
	PhaseProbe
	// PhaseFetch is candidate fetch: dereferencing candidate pointers
	// into primary storage (the experiments' clustered copy, offline).
	PhaseFetch
	// PhaseRefine is NoK navigational refinement of fetched candidates.
	PhaseRefine
	// NumPhases is the number of traced phases.
	NumPhases
)

var phaseNames = [NumPhases]string{"parse", "plan", "probe", "fetch", "refine"}

// String returns the phase's short name as used in logs and documents.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// BTreeDelta is the B-tree page traffic one query caused: page accesses
// (CacheHits — the image is resident, so each is a hit) and, zero for a
// query on a frozen view, pages read from and written to the file.
type BTreeDelta struct {
	PageReads  int64
	PageWrites int64
	CacheHits  int64
}

// StorageDelta is the record-heap activity one query caused, in the
// storage layer's own accounting: sequential vs. random record reads,
// reads served by the one-record cache, bytes read, and pointer
// dereferences through ReadSubtree (the unclustered refinement cost
// model's unit).
type StorageDelta struct {
	SeqReads     int64
	RandomReads  int64
	CachedReads  int64
	BytesRead    int64
	SubtreeReads int64
	SubtreeBytes int64
}

// Add returns the field-wise sum of two deltas, for a trace that spans
// several refinement passes.
func (d StorageDelta) Add(o StorageDelta) StorageDelta {
	return StorageDelta{
		SeqReads:     d.SeqReads + o.SeqReads,
		RandomReads:  d.RandomReads + o.RandomReads,
		CachedReads:  d.CachedReads + o.CachedReads,
		BytesRead:    d.BytesRead + o.BytesRead,
		SubtreeReads: d.SubtreeReads + o.SubtreeReads,
		SubtreeBytes: d.SubtreeBytes + o.SubtreeBytes,
	}
}

// Trace records one query's execution: wall time per phase plus the
// counters each phase produced. A nil *Trace disables collection
// entirely; every producer checks for nil before touching a timer.
//
// The I/O deltas are computed by differencing the shared subsystem
// counters around the phase, so when multiple queries run concurrently
// over one database a trace may attribute a concurrent query's I/O to
// itself. The process-wide totals (Registry and the cumulative
// subsystem stats) are exact regardless.
type Trace struct {
	// Query is the original XPath text.
	Query string
	// Start is when query evaluation began.
	Start time.Time
	// Total is the end-to-end wall time.
	Total time.Duration
	// Phase holds per-phase durations, indexed by Phase.
	Phase [NumPhases]time.Duration

	// Entries is the number of index entries (ent of §6.2); Scanned how
	// many the range scan touched; Candidates how many survived the
	// feature filter (cdt); Matched how many candidates produced at
	// least one result (rst); Count the total output-node matches.
	Entries, Scanned, Candidates, Matched, Count int
	// NodesVisited counts the nodes the NoK matcher's pruned first pass
	// decoded — only nodes the twig could bind, not whole candidate
	// subtrees — the unit of refinement work.
	NodesVisited int64
	// BTree is the B-tree page traffic of the probe phase.
	BTree BTreeDelta
	// Storage is the primary record heap's activity of fetch +
	// refinement.
	Storage StorageDelta
	// Fallback reports that the index was degraded and the result came
	// from a full sequential scan; the pruning counters are then zero.
	Fallback bool
	// Generation is the publish sequence number of the index generation
	// the query ran against (0 when unknown), for attributing traces
	// across concurrent index swaps.
	Generation uint64
}
