package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// parallelDocs returns a corpus spanning several pipeline batches, with
// new label pairs first appearing at varying records so the merge
// point's assignment order matters.
func parallelDocs(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		r, s, u := i%6, (i*3)%5, (i*7)%4
		out = append(out, fmt.Sprintf(
			`<r%d><s%d><leaf%d>v</leaf%d></s%d><u%d><s%d/></u%d></r%d>`,
			r, s, i%9, i%9, s, u, (s+1)%5, u, r))
	}
	return out
}

func newParallelStore(t *testing.T, docs []string) *storage.Store {
	t.Helper()
	st, err := storage.NewStore(storage.NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatalf("parsing doc %d: %v", i, err)
		}
		if _, err := st.AppendTree(n); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// entryDump flattens every B-tree entry to one comparable string.
func entryDump(t *testing.T, ix *Index) string {
	t.Helper()
	var buf []byte
	err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		buf = append(buf, k...)
		buf = append(buf, 0xFF)
		buf = append(buf, v...)
		buf = append(buf, 0xFE)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestBuildDeterministicAcrossWorkers rebuilds the same store with
// several worker counts and requires identical entries, encoder
// assignments, and counters — for both the collection and the
// depth-limited scenario — and, where clustered is set, identical
// clustered copies.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	docs := parallelDocs(200)
	st := newParallelStore(t, docs)
	for _, tc := range []struct {
		opts      Options
		clustered bool
	}{
		{Options{}, false},
		{Options{DepthLimit: 2, SpectrumK: 2}, false},
		{Options{DepthLimit: 3}, true},
	} {
		t.Run(fmt.Sprintf("depth=%d,clustered=%t", tc.opts.DepthLimit, tc.clustered), func(t *testing.T) {
			var ref *Index
			var refDump, refHeap string
			for _, w := range []int{1, 2, 7, 16} {
				o := tc.opts
				o.Workers = w
				ix, err := Build(st, o)
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				dump, heap := entryDump(t, ix), ""
				if tc.clustered {
					heap = heapDump(t, ix)
				}
				if ref == nil {
					ref, refDump, refHeap = ix, dump, heap
					continue
				}
				if dump != refDump {
					t.Errorf("Workers=%d produced different entries than Workers=1", w)
				}
				if heap != refHeap {
					t.Errorf("Workers=%d produced a different clustered copy than Workers=1", w)
				}
				if ix.EdgePairs() != ref.EdgePairs() {
					t.Errorf("Workers=%d assigned %d edge pairs, want %d", w, ix.EdgePairs(), ref.EdgePairs())
				}
				if ix.Entries() != ref.Entries() || ix.OversizeEntries() != ref.OversizeEntries() || ix.MaxDocDepth() != ref.MaxDocDepth() {
					t.Errorf("Workers=%d counters diverged", w)
				}
			}
		})
	}
}

// TestBuildStats checks the per-phase breakdown is populated and
// consistent with the build.
func TestBuildStats(t *testing.T) {
	st := newParallelStore(t, parallelDocs(100))
	ix, err := Build(st, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Workers != 4 {
		t.Errorf("Workers = %d, want 4", s.Workers)
	}
	if s.Records != 100 || s.Units != ix.Entries() {
		t.Errorf("Records=%d Units=%d, want 100 and %d", s.Records, s.Units, ix.Entries())
	}
	if s.Wall <= 0 || s.Wall != ix.BuildTime() {
		t.Errorf("Wall = %v, want positive and equal to BuildTime %v", s.Wall, ix.BuildTime())
	}
	if s.UnitsPerSec() <= 0 {
		t.Errorf("UnitsPerSec = %v, want > 0", s.UnitsPerSec())
	}
}

// TestBuildCancellation checks a cancelled context stops the build with
// ctx.Err() and that queries on an index built afterwards still work.
func TestBuildCancellation(t *testing.T) {
	st := newParallelStore(t, parallelDocs(120))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCtx(ctx, st, Options{Workers: 4}); err != context.Canceled {
		t.Fatalf("BuildCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	ix, err := BuildCtx(context.Background(), st, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath.Parse("//r1[s3]")
	if err != nil {
		t.Fatal(err)
	}
	res, err := query(freeze(t, ix), q)
	if err != nil {
		t.Fatal(err)
	}
	_, brute := bruteCount(t, st, q)
	if res.Count != brute {
		t.Errorf("count = %d, want %d", res.Count, brute)
	}
}

// TestQueryCancellation checks the query paths observe cancellation.
func TestQueryCancellation(t *testing.T) {
	st := newParallelStore(t, parallelDocs(50))
	ix, err := Build(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath.Parse("//r1[s3]")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := freeze(t, ix)
	if _, err := g.QueryGoverned(ctx, q, nil, Limits{}); err != context.Canceled {
		t.Errorf("QueryGoverned on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := g.ExistsGoverned(ctx, q); err != context.Canceled {
		t.Errorf("ExistsGoverned on cancelled ctx = %v, want context.Canceled", err)
	}
}

// appendDocs parses and appends docs to st, returning their record numbers.
func appendDocs(t *testing.T, st *storage.Store, docs []string) []uint32 {
	t.Helper()
	recs := make([]uint32, len(docs))
	for i, d := range docs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatalf("parsing doc %d: %v", i, err)
		}
		if recs[i], err = st.AppendTree(n); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestBuildMatchesIncremental checks the two ways an entry reaches the
// B-tree against each other: a bulk build (collect, sort, pack) over N
// documents, and an empty build followed by InsertDocumentsCtx of the
// same N (one Put per entry, the path every index was built by before the
// loader). Both must hold the same entries, byte for byte, and — where a
// case clusters — the same clustered copy.
func TestBuildMatchesIncremental(t *testing.T) {
	docs := parallelDocs(150)
	for _, tc := range []struct {
		name      string
		opts      Options
		clustered bool
	}{
		{"unclustered", Options{}, false},
		{"clustered", Options{DepthLimit: 2}, true},
		{"depth-limited", Options{DepthLimit: 3}, false},
		{"values", Options{DepthLimit: 2, Values: true, Beta: 4}, false},
		{"spectrum", Options{DepthLimit: 2, SpectrumK: 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One dictionary under both stores, filled before either build,
			// so a value index fixes the same α on both sides.
			dict := xmltree.NewDict()
			newStore := func() *storage.Store {
				st, err := storage.NewStore(storage.NewMemFile(), dict)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			bulkStore := newStore()
			appendDocs(t, bulkStore, docs)
			bulk, err := Build(bulkStore, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			liveStore := newStore()
			live, err := Build(liveStore, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := live.InsertDocumentsCtx(context.Background(), appendDocs(t, liveStore, docs)); err != nil {
				t.Fatal(err)
			}

			// The two scans must be the same sequence (keys are unique, so
			// that is the multiset).
			entries := func(ix *Index) []string {
				var out []string
				err := ix.bt.Scan(nil, nil, func(k, v []byte) bool {
					out = append(out, string(k)+string(v))
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			b, l := entries(bulk), entries(live)
			if len(b) == 0 || len(b) != len(l) {
				t.Fatalf("bulk build holds %d entries, incremental %d", len(b), len(l))
			}
			for i := range b {
				if b[i] != l[i] {
					t.Fatalf("entry %d differs: bulk %x, incremental %x", i, b[i], l[i])
				}
			}
			if bulk.seq != live.seq || bulk.oversize != live.oversize || bulk.maxDocDepth != live.maxDocDepth {
				t.Errorf("counters: bulk seq=%d oversize=%d depth=%d, incremental %d/%d/%d",
					bulk.seq, bulk.oversize, bulk.maxDocDepth, live.seq, live.oversize, live.maxDocDepth)
			}
			if err := bulk.Verify(); err != nil {
				t.Errorf("bulk index fails Verify: %v", err)
			}
			if tc.clustered && heapDump(t, bulk) != heapDump(t, live) {
				t.Error("the clustered copies of the bulk and the incremental build differ")
			}
		})
	}
}

// countedFile counts its Close.
type countedFile struct {
	storage.File
	closed *atomic.Int32
}

func (f countedFile) Close() error {
	f.closed.Add(1)
	return f.File.Close()
}

// TestFailedBuildClosesFiles counts, through the index's file seam, the
// files a build creates and closes: a build that fails — cancelled, or on
// a write error — must close every one of them, because a maintainer
// retries a failing rebuild for as long as the server lives.
func TestFailedBuildClosesFiles(t *testing.T) {
	st := newParallelStore(t, parallelDocs(80))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		plan  *storage.FaultPlan
		want  error
		files int32 // fix.btree
	}{
		{"cancelled", cancelled, &storage.FaultPlan{}, context.Canceled, 1},
		{"write fault in the pack", context.Background(), &storage.FaultPlan{FailWrite: 3}, storage.ErrInjected, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var created, closed atomic.Int32
			inner := faultFS(tc.plan)
			fsys := &indexFS{open: inner.open, create: func(path string) (storage.File, error) {
				f, err := inner.create(path)
				if err != nil {
					return nil, err
				}
				created.Add(1)
				return countedFile{f, &closed}, nil
			}}
			opts := Options{DepthLimit: 2, PageSize: 256, Dir: t.TempDir(), fs: fsys}
			_, err := BuildCtx(tc.ctx, st, opts)
			if !errors.Is(err, tc.want) {
				t.Fatalf("BuildCtx = %v, want %v", err, tc.want)
			}
			if created.Load() != tc.files || closed.Load() != tc.files {
				t.Errorf("the failed build created %d files and closed %d, want %d of each", created.Load(), closed.Load(), tc.files)
			}
		})
	}
}
