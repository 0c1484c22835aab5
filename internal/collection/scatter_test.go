package collection

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fix-index/fix/fix"
	"github.com/fix-index/fix/internal/par"
)

// newLateCollection creates a collection of nshards shards under a
// 30 ms per-shard deadline, each shard holding four two-item documents.
func newLateCollection(t *testing.T, name string, nshards int) *Collection {
	t.Helper()
	c := newTestCollection(t, Spec{Name: name, Shards: nshards},
		Options{ShardTimeout: 30 * time.Millisecond})
	var docs []string
	for sh := 0; sh < nshards; sh++ {
		l := labelFor(t, sh, nshards)
		for i := 0; i < 4; i++ {
			docs = append(docs, doc(l, 2))
		}
	}
	if _, err := c.AddBatch(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkLateShard stalls shard late of a newLateCollection past the
// per-shard deadline, and leaves the stall installed: the query must
// return the surviving shards' results marked Partial, identify the late
// shard as TimedOut, and keep the others' counts exact.
func checkLateShard(t *testing.T, c *Collection, nshards, late int) {
	t.Helper()
	c.testShardStall = func(shard int) {
		if shard == late {
			time.Sleep(150 * time.Millisecond)
		}
	}
	res, err := c.Query(context.Background(), "//item", QueryOpts{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("query with a stalled shard not flagged Partial")
	}
	for _, r := range res.Shards {
		if r.Shard == late {
			if !r.TimedOut {
				t.Errorf("late shard row = %+v, want TimedOut", r)
			}
			if r.Err == "" {
				t.Error("late shard row carries no error cause")
			}
			if r.Count != 0 {
				t.Errorf("late shard contributed %d results to a partial merge", r.Count)
			}
			continue
		}
		if r.TimedOut || r.Failed {
			t.Errorf("healthy shard %d row = %+v", r.Shard, r)
		}
		if r.Count != 4*2 {
			t.Errorf("healthy shard %d count = %d, want 8", r.Shard, r.Count)
		}
		if r.Trace == nil {
			t.Errorf("healthy shard %d returned no trace", r.Shard)
		} else if r.Trace.Collection != c.Name() || r.Trace.Shard != r.Shard {
			t.Errorf("shard %d trace attribution = %q/%d", r.Shard, r.Trace.Collection, r.Trace.Shard)
		}
	}
	if want := (nshards - 1) * 4 * 2; res.Count != want {
		t.Errorf("partial count = %d, want %d (surviving shards only)", res.Count, want)
	}
}

// TestShardDeadlinePartialResult runs checkLateShard, then checks a
// targeted query avoiding the stalled shard is unaffected.
func TestShardDeadlinePartialResult(t *testing.T) {
	const nshards = 3
	c := newLateCollection(t, "late", nshards)
	checkLateShard(t, c, nshards, 1)

	l0 := labelFor(t, 0, nshards)
	res, err := c.Query(context.Background(), "/"+l0+"/item", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Count != 4*2 {
		t.Errorf("targeted query around the stall = %+v", res)
	}
}

// goroutineID is the number runtime.Stack prints on the calling
// goroutine's "goroutine N [running]:" line.
func goroutineID() string {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	return strings.Fields(string(line))[1]
}

// TestScatterOneCPU scatters over four shards with one CPU: every shard
// runs on the caller's goroutine, in shard order; a shard stalled past
// its deadline is still the only one timed out, since each shard's clock
// starts with that shard; and a panicking shard fails the query with
// par.ErrPanic instead of crashing the process.
func TestScatterOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nshards = 4
	c := newLateCollection(t, "onecpu", nshards)

	caller := goroutineID()
	var ran []int // appended on the caller's goroutine only, checked below
	c.testShardStall = func(shard int) {
		if id := goroutineID(); id != caller {
			t.Errorf("shard %d ran on goroutine %s, want the caller's %s", shard, id, caller)
			return
		}
		ran = append(ran, shard)
	}
	res, err := c.Query(context.Background(), "//item", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[0 1 2 3]" || res.Count != nshards*4*2 {
		t.Fatalf("shards run on the caller = %v, count %d; want [0 1 2 3] and %d", ran, res.Count, nshards*4*2)
	}

	checkLateShard(t, c, nshards, 1)

	c.testShardStall = func(shard int) {
		if shard == 2 {
			panic("shard 2 stall hook")
		}
	}
	if _, err := c.Query(context.Background(), "//item", QueryOpts{}); !errors.Is(err, par.ErrPanic) {
		t.Fatalf("query with a panicking shard = %v, want par.ErrPanic", err)
	}
}

// TestRequestContextCancelFailsWhole distinguishes the request context
// (its death fails the query) from per-shard deadlines (tolerated).
func TestRequestContextCancelFailsWhole(t *testing.T) {
	c := newTestCollection(t, Spec{Name: "cancel", Shards: 2}, Options{})
	if _, err := c.AddBatch(context.Background(), []string{doc(labelFor(t, 0, 2), 1)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.testShardStall = func(int) { cancel() }
	if _, err := c.Query(ctx, "//item", QueryOpts{}); err == nil {
		t.Fatal("query with canceled request context succeeded")
	}
}

// TestDocumentPassFailureIsPartial fails one shard's document pass —
// its heap is cut to nothing after the count pass and before the document
// pass reads it — and expects that shard's row Failed with its cause, the
// result Partial, and neither its count nor its documents merged; the
// other shard's documents stay. A request context canceled at a document
// pass fails the whole query instead.
func TestDocumentPassFailureIsPartial(t *testing.T) {
	const nshards = 2
	c := newTestCollection(t, Spec{Name: "docs", Shards: nshards}, Options{})
	ctx := context.Background()
	// Two documents in the broken shard: a view keeps the last record it
	// read, so the document pass's first read is of one the count pass
	// read before the last.
	l0, l1 := labelFor(t, 0, nshards), labelFor(t, 1, nshards)
	if _, err := c.AddBatch(ctx, []string{doc(l0, 1), doc(l1, 1), doc(l1, 1)}); err != nil {
		t.Fatal(err)
	}
	const broken = 1
	// passes counts the seam's calls per shard: the count pass is the
	// first, the document pass the second.
	var mu sync.Mutex
	passes := map[int]int{}
	atDocumentPass := func(shard, target int, fault func()) {
		mu.Lock()
		passes[shard]++
		n := passes[shard]
		mu.Unlock()
		if shard == target && n == 2 {
			fault()
		}
	}
	c.testShardStall = func(shard int) {
		atDocumentPass(shard, broken, func() {
			if err := os.Truncate(filepath.Join(ShardDir(c.dir, broken), "data.heap"), 0); err != nil {
				t.Error(err)
			}
		})
	}
	res, err := c.Query(ctx, "//item", QueryOpts{WithDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("a failed document pass left the result complete")
	}
	for _, r := range res.Shards {
		switch {
		case r.Shard == broken && (!r.Failed || r.Err == "" || r.Count != 0):
			t.Errorf("broken shard row = %+v, want Failed with its cause and no count", r)
		case r.Shard != broken && (r.Failed || r.TimedOut || r.Count != 1):
			t.Errorf("healthy shard row = %+v", r)
		}
	}
	if res.Count != 1 || len(res.Documents) != 1 {
		t.Fatalf("merged %d results and documents %v, want the healthy shard's 1 and 1", res.Count, res.Documents)
	}
	if sh, _ := SplitID(res.Documents[0]); sh == broken {
		t.Errorf("documents %v include the broken shard's", res.Documents)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	passes = map[int]int{}
	c.testShardStall = func(shard int) { atDocumentPass(shard, 0, cancel) }
	if res, err := c.Query(cctx, "//item", QueryOpts{WithDocuments: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("query canceled during a document pass = %+v, %v; want context.Canceled", res, err)
	}
}

// TestSlowQueryAttribution checks the slow-query sink receives traces
// stamped with collection and shard.
func TestSlowQueryAttribution(t *testing.T) {
	var mu sync.Mutex
	type hit struct {
		collection string
		shard      int
	}
	var hits []hit
	spec := Spec{Name: "slow", Shards: 2}
	c, err := Create(context.Background(), filepath.Join(t.TempDir(), "slow"), spec, Options{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		OnSlowQuery: func(tr fix.QueryTrace) {
			mu.Lock()
			hits = append(hits, hit{tr.Collection, tr.Shard})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddBatch(context.Background(), []string{doc(labelFor(t, 0, 2), 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "//item", QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hits) == 0 {
		t.Fatal("no slow-query traces delivered")
	}
	seen := map[int]bool{}
	for _, h := range hits {
		if h.collection != "slow" {
			t.Errorf("trace attributed to collection %q, want slow", h.collection)
		}
		seen[h.shard] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("slow-query shards seen = %v, want both 0 and 1", seen)
	}
}

// TestConcurrentQueryIngestRebuild is the -race stress: queries
// (targeted and scattered), batched ingest, saves, and the shards'
// maintainers checkpointing and rebuilding all run concurrently against
// one collection; nothing may error and final counts must reconcile.
// The shards index values, so a document that brings a new element
// label degrades its shard's index (a value index cannot absorb labels
// it was not built with) and the shard's maintainer has to rebuild it
// while the writers and queriers keep going.
func TestConcurrentQueryIngestRebuild(t *testing.T) {
	const nshards = 4
	c := newTestCollection(t, Spec{Name: "stress", Shards: nshards, Values: true}, Options{Maintain: fastMaintenance(t)})
	ctx := context.Background()

	labels := make([]string, nshards)
	for sh := 0; sh < nshards; sh++ {
		labels[sh] = labelFor(t, sh, nshards)
	}
	// Seed so early queries have data.
	var seed []string
	for _, l := range labels {
		seed = append(seed, doc(l, 1))
	}
	if _, err := c.AddBatch(ctx, seed); err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 2
		batchesPerW   = 15
		docsPerBatch  = 4
		queriesPerGor = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, 16)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPerW; b++ {
				batch := make([]string, docsPerBatch)
				for i := range batch {
					batch[i] = doc(labels[(w+b+i)%nshards], 1)
				}
				if w == 0 && b%3 == 0 {
					// One item, plus an element label no earlier document had.
					l := labels[b%nshards]
					batch[0] = fmt.Sprintf("<%s><item><name>x</name></item><new%d/></%s>", l, b, l)
				}
				if _, err := c.AddBatch(ctx, batch); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < queriesPerGor; i++ {
				expr := "//item"
				if i%2 == 0 {
					expr = "/" + labels[i%nshards] + "/item"
				}
				res, err := c.Query(ctx, expr, QueryOpts{Trace: i%4 == 0})
				if err != nil {
					errc <- fmt.Errorf("querier %d: %w", q, err)
					return
				}
				if res.Partial {
					errc <- fmt.Errorf("querier %d: spurious partial: %+v", q, res)
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			// A shard waiting for its rebuild refuses to be saved; any
			// other failure is a bug.
			if err := c.Save(); err != nil && !errors.Is(err, fix.ErrRebuildRequired) {
				errc <- fmt.Errorf("save: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	var rebuilds int64
	waitFor(t, "the maintainers to rebuild every degraded shard", func() bool {
		rebuilds = 0
		for _, h := range c.Health() {
			if !h.Healthy {
				return false
			}
			rebuilds += h.Maintainer.AutoRebuilds
		}
		return true
	})
	if rebuilds == 0 {
		t.Error("no shard was ever auto-rebuilt; the stress did not exercise the maintainers' rebuild path")
	}

	want := nshards + writers*batchesPerW*docsPerBatch
	res, err := c.Query(ctx, "//item", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want || res.Degraded {
		t.Errorf("final count = %d (degraded %v), want %d from healthy shards", res.Count, res.Degraded, want)
	}
	if got := c.NumDocuments(); got != want {
		t.Errorf("NumDocuments = %d, want %d", got, want)
	}
}
