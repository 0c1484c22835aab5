package fix

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// manyDocs returns a deterministic corpus large enough to span several
// build batches, with label pairs appearing for the first time at
// varying records so the encoder's assignment order is exercised.
func manyDocs(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		r, s, t, u := i%7, (i*3)%5, i%11, (i*5)%9
		out = append(out, fmt.Sprintf(
			`<r%d><s%d><t%d>v%d</t%d><t%d/></s%d><u%d><s%d/></u%d></r%d>`,
			r, s, t, i%3, t, (t+1)%11, s, u, (s+2)%5, u, r))
	}
	return out
}

// buildTo creates an on-disk database under dir, adds docs, builds the
// index with opts, and saves everything.
func buildTo(t *testing.T, dir string, docs []string, opts IndexOptions) {
	t.Helper()
	db, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, d := range docs {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex(opts); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBuildByteIdentical asserts the tentpole guarantee: the
// index files a Workers=8 build writes are byte-for-byte identical to
// the sequential build's, for both the collection and the depth-limited
// scenario.
func TestParallelBuildByteIdentical(t *testing.T) {
	docs := manyDocs(150)
	for _, opts := range []IndexOptions{
		{},
		{DepthLimit: 2},
	} {
		name := fmt.Sprintf("depth=%d", opts.DepthLimit)
		t.Run(name, func(t *testing.T) {
			seqDir := filepath.Join(t.TempDir(), "seq")
			parDir := filepath.Join(t.TempDir(), "par")
			seqOpts, parOpts := opts, opts
			seqOpts.Workers = 1
			parOpts.Workers = 8
			buildTo(t, seqDir, docs, seqOpts)
			buildTo(t, parDir, docs, parOpts)
			for _, name := range []string{"fix.btree", "fix.edges", "fix.meta"} {
				a, err := os.ReadFile(filepath.Join(seqDir, name))
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(filepath.Join(parDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s differs between Workers=1 (%d bytes) and Workers=8 (%d bytes)", name, len(a), len(b))
				}
			}
		})
	}
}

// TestConcurrentQueries runs queries from many goroutines against one
// DB; under -race this asserts the whole query path (B-tree page cache
// included) is safe for concurrent readers.
func TestConcurrentQueries(t *testing.T) {
	db, err := CreateMem()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range manyDocs(60) {
		if _, err := db.AddDocumentString(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndexWith(context.Background(), Workers(4)); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("//r1[s3]")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := db.Query("//r1[s3]")
				if err != nil {
					errs <- err
					return
				}
				if res.Count != want.Count {
					errs <- fmt.Errorf("concurrent count = %d, want %d", res.Count, want.Count)
					return
				}
				if _, err := db.Exists("//u4/s2"); err != nil {
					errs <- err
					return
				}
				if _, err := db.QueryDocuments("//s3[t5]"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCancelledBuildLeavesDBUsable cancels a build and checks the
// database survives: the old commit still opens, and a fresh build
// repairs everything.
func TestCancelledBuildLeavesDBUsable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	docs := manyDocs(80)
	buildTo(t, dir, docs, IndexOptions{})

	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("//r1[s3]")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.BuildIndexCtx(ctx, IndexOptions{Workers: 4}); err != context.Canceled {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The cancelled build may have left a partial fix.btree behind; the
	// committed fix.meta still governs, so reopening must yield either a
	// working index or the scan fallback — and in both cases the same
	// answer.
	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query("//r1[s3]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count {
		t.Errorf("count after cancelled build = %d, want %d", res.Count, want.Count)
	}
	if err := db.RebuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("//r1[s3]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count || res.ScanFallback {
		t.Errorf("after rebuild: count=%d fallback=%v, want count=%d fallback=false", res.Count, res.ScanFallback, want.Count)
	}
}
