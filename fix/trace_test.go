package fix

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fix-index/fix/internal/datagen"
)

// traceDB builds an in-memory database large enough that every query
// phase does real work, using the XMark generator.
func traceDB(t *testing.T, opts IndexOptions) *DB {
	t.Helper()
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	if err := datagen.Populate(db.store, datagen.XMarkDataset, datagen.Config{Seed: 7, Scale: 0.02}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(opts); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTraceReconcilesWithStorageStats checks that a traced query's
// storage counters equal the store's own before/after deltas, and that
// the B-tree counters equal the tree's deltas — tracing must report the
// exact I/O the query caused, not an estimate.
func TestTraceReconcilesWithStorageStats(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := newTestDB(t, IndexOptions{Workers: workers})
			st0 := db.store.Stats()
			bt0 := db.index.BTree().Stats()
			res, err := db.Query("//article[author]/title", Trace())
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			if tr == nil {
				t.Fatal("Trace returned a nil trace")
			}
			std := db.store.Stats().Sub(st0)
			btd := db.index.BTree().Stats().Sub(bt0)
			if tr.SeqReads != std.SeqReads || tr.RandomReads != std.RandomReads ||
				tr.CachedReads != std.CachedReads || tr.BytesRead != std.BytesRead ||
				tr.SubtreeReads != std.SubtreeReads || tr.SubtreeBytes != std.SubtreeBytes {
				t.Errorf("storage counters diverge: trace {seq %d rand %d cached %d bytes %d sub %d subB %d}, store delta %+v",
					tr.SeqReads, tr.RandomReads, tr.CachedReads, tr.BytesRead, tr.SubtreeReads, tr.SubtreeBytes, std)
			}
			if tr.PageReads != btd.PageReads || tr.CacheHits != btd.CacheHits {
				t.Errorf("btree counters diverge: trace {reads %d hits %d}, tree delta %+v",
					tr.PageReads, tr.CacheHits, btd)
			}
			if tr.Count != res.Count || tr.Candidates != res.Candidates ||
				tr.Entries != res.Entries || tr.Matched != res.MatchedEntries {
				t.Errorf("trace result counters %+v diverge from Result %+v", tr, res)
			}
			if tr.NodesVisited <= 0 {
				t.Errorf("NodesVisited = %d, want > 0", tr.NodesVisited)
			}
			if tr.Total <= 0 {
				t.Errorf("implausible trace timing: total %v", tr.Total)
			}
		})
	}
}

// TestTraceReconcilesWithMetrics checks that a trace's ent/cdt/rst
// counters produce exactly the §6.2 measures Result.Effectiveness reports, cdt being
// the candidates and the entries the pair sketch dropped, and that its
// shared_matches is the Result's and moves the /metrics counter by as
// much: on a depth-limited index the four <title> units agree throughout,
// so one match answers three of them.
func TestTraceReconcilesWithMetrics(t *testing.T) {
	for _, tc := range []struct {
		opts   IndexOptions
		q      string
		shared int
	}{
		{IndexOptions{}, "//author[email]", 0},
		{IndexOptions{DepthLimit: 3}, "//title", 3},
	} {
		db := newTestDB(t, tc.opts)
		before := db.Metrics().SharedMatches
		res, err := db.Query(tc.q, Trace())
		if err != nil {
			t.Fatal(err)
		}
		m, ok := res.Effectiveness()
		if !ok {
			t.Fatalf("%s: the index did not answer", tc.q)
		}
		tr := res.Trace
		cdt := tr.Candidates + tr.SketchPruned
		sel := 1 - float64(tr.Matched)/float64(tr.Entries)
		pp := 1 - float64(cdt)/float64(tr.Entries)
		fpr := 0.0
		if cdt > 0 {
			fpr = 1 - float64(tr.Matched)/float64(cdt)
		}
		if sel != m.Selectivity || pp != m.PruningPower || fpr != m.FalsePosRatio {
			t.Errorf("%s: trace-derived sel/pp/fpr = %v/%v/%v, Effectiveness = %v/%v/%v",
				tc.q, sel, pp, fpr, m.Selectivity, m.PruningPower, m.FalsePosRatio)
		}
		if tr.SharedMatches != tc.shared || res.SharedMatches != tc.shared {
			t.Errorf("%s: shared_matches %d in the trace, %d in the result, want %d", tc.q, tr.SharedMatches, res.SharedMatches, tc.shared)
		}
		if d := db.Metrics().SharedMatches - before; d != int64(tr.SharedMatches) {
			t.Errorf("%s: /metrics shared_matches moved by %d, the trace says %d", tc.q, d, tr.SharedMatches)
		}
		_ = db.Close()
	}
}

// TestTraceOnScanFallback checks the degraded-index path: the trace
// must mark the fallback, report the scan's refinement work, and still
// reconcile with the storage deltas.
func TestTraceOnScanFallback(t *testing.T) {
	dbdir, want := buildPersistentDB(t)
	corruptBtreePages(t, dbdir)
	db, err := Open(dbdir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st0 := db.store.Stats()
	res, err := db.Query("//article[author]/title", Trace())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScanFallback || res.Count != want.Count {
		t.Fatalf("fallback result = %+v, want fallback with count %d", res, want.Count)
	}
	tr := res.Trace
	if tr == nil || !tr.ScanFallback {
		t.Fatalf("trace = %+v, want ScanFallback", tr)
	}
	if tr.Entries != 0 || tr.Candidates != 0 {
		t.Errorf("fallback trace reports pruning counters: ent %d cdt %d", tr.Entries, tr.Candidates)
	}
	if tr.Count != want.Count || tr.NodesVisited <= 0 {
		t.Errorf("fallback trace count %d (want %d), nodes %d (want > 0)", tr.Count, want.Count, tr.NodesVisited)
	}
	std := db.store.Stats().Sub(st0)
	if tr.SeqReads != std.SeqReads || tr.RandomReads != std.RandomReads || tr.BytesRead != std.BytesRead {
		t.Errorf("fallback storage counters diverge: trace {%d %d %d}, delta %+v",
			tr.SeqReads, tr.RandomReads, tr.BytesRead, std)
	}
	if !strings.Contains(tr.String(), "degraded index") {
		t.Errorf("trace.String() does not mention the fallback:\n%s", tr.String())
	}
}

// TestTraceUnindexedScan checks the no-index path still produces a
// coherent trace.
func TestTraceUnindexedScan(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("//author[email]", Trace())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil || tr.ScanFallback || tr.Entries != 0 {
		t.Fatalf("unexpected trace %+v", tr)
	}
	if tr.Count != 2 || tr.Matched != 2 || tr.NodesVisited <= 0 {
		t.Errorf("trace count %d matched %d nodes %d, want 2/2/>0", tr.Count, tr.Matched, tr.NodesVisited)
	}
	if !strings.Contains(tr.String(), "no index") {
		t.Errorf("trace.String() does not mention the missing index:\n%s", tr.String())
	}
}

// TestUntracedQueryHasNoTrace pins the default: no Trace, no slow
// log — no trace allocation.
func TestUntracedQueryHasNoTrace(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	res, err := db.Query("//author[email]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Errorf("untraced query carries a trace: %+v", res.Trace)
	}
}

// TestSlowQueryLog checks the hook: a threshold of 1ns fires for every
// query with the full trace; a huge threshold never fires; and the hook
// is safe under concurrent queries (run with -race).
func TestSlowQueryLog(t *testing.T) {
	db := traceDB(t, IndexOptions{DepthLimit: 6, Workers: 4})
	var mu sync.Mutex
	var got []QueryTrace
	db.SetOptions(Options{
		SlowQueryThreshold: time.Nanosecond,
		OnSlowQuery: func(tr QueryTrace) {
			mu.Lock()
			got = append(got, tr)
			mu.Unlock()
		},
	})
	const parallel = 4
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Query("//item[name]"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != parallel {
		t.Fatalf("slow-query hook fired %d times, want %d", n, parallel)
	}
	for _, tr := range got {
		if tr.Total < time.Nanosecond || tr.Query != "//item[name]" || tr.Candidates == 0 {
			t.Errorf("implausible slow-query trace: %+v", tr)
		}
	}

	db.SetOptions(Options{SlowQueryThreshold: time.Hour, OnSlowQuery: func(QueryTrace) {
		t.Error("hook fired below threshold")
	}})
	if _, err := db.Query("//item[name]"); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCountsQueries checks that the process-wide registry moves
// with every query and that the DB-side counters appear in Metrics.
func TestSnapshotCountsQueries(t *testing.T) {
	db := newTestDB(t, IndexOptions{})
	before := db.Metrics()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := db.Query("//author[email]"); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Metrics()
	if after.Queries-before.Queries != n {
		t.Errorf("Queries moved by %d, want %d", after.Queries-before.Queries, n)
	}
	if after.Latency.Count-before.Latency.Count != n {
		t.Errorf("latency count moved by %d, want %d", after.Latency.Count-before.Latency.Count, n)
	}
	if after.Candidates-before.Candidates <= 0 {
		t.Error("candidate total did not move")
	}
	if after.Documents != len(docs) || after.IndexEntries != len(docs) {
		t.Errorf("snapshot shape: %d documents, %d entries, want %d/%d",
			after.Documents, after.IndexEntries, len(docs), len(docs))
	}
	if after.BTree.CacheHits == 0 && after.BTree.PageReads == 0 {
		t.Error("snapshot carries no B-tree activity")
	}
	if after.Storage.BytesRead == 0 {
		t.Error("snapshot carries no storage reads")
	}
	// A failing query counts as an error, not a query.
	if _, err := db.Query("///"); err == nil {
		t.Fatal("malformed query did not error")
	}
	final := db.Metrics()
	if final.QueryErrors-after.QueryErrors != 1 {
		t.Errorf("QueryErrors moved by %d, want 1", final.QueryErrors-after.QueryErrors)
	}
}
