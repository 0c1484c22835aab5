package core

import (
	"context"
	"fmt"
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
// depth-limited scenario.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	docs := parallelDocs(200)
	st := newParallelStore(t, docs)
	for _, opts := range []Options{
		{},
		{DepthLimit: 2, SpectrumK: 2},
		{DepthLimit: 3, Clustered: true},
	} {
		t.Run(fmt.Sprintf("depth=%d,clustered=%t", opts.DepthLimit, opts.Clustered), func(t *testing.T) {
			var ref *Index
			var refDump string
			for _, w := range []int{1, 2, 7, 16} {
				o := opts
				o.Workers = w
				ix, err := Build(st, o)
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				dump := entryDump(t, ix)
				if ref == nil {
					ref, refDump = ix, dump
					continue
				}
				if dump != refDump {
					t.Errorf("Workers=%d produced different entries than Workers=1", w)
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
