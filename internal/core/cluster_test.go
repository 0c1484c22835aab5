package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

// clustered is the paper's clustered layout of an index (§4.1, Figure 4)
// as the tests lay it out through Postings: every posting's subtree copied
// into a heap of its own, one record each, in key order.
type clustered struct {
	heap   *storage.Store
	copies map[storage.Pointer]uint32 // primary pointer → record of its copy
}

func cluster(t *testing.T, ix *Index) *clustered {
	t.Helper()
	heap, err := storage.NewStore(storage.NewMemFile(), ix.dict)
	if err != nil {
		t.Fatal(err)
	}
	c := &clustered{heap: heap, copies: map[storage.Pointer]uint32{}}
	err = ix.Postings(func(p storage.Pointer) error {
		cur, ref, err := ix.store.ReadSubtree(p)
		if err == nil {
			c.copies[p], err = heap.AppendBytes(cur.SubtreeBytes(ref))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// read returns a read function for QueryRead over a fresh view of the
// copies, released at the end of the test: a copy's root is offset 0.
func (c *clustered) read(t *testing.T) func(storage.Pointer) (xmltree.Cursor, xmltree.Ref, error) {
	v := c.heap.Freeze()
	t.Cleanup(v.Release)
	return func(p storage.Pointer) (xmltree.Cursor, xmltree.Ref, error) {
		rec, ok := c.copies[p]
		if !ok {
			return xmltree.Cursor{}, 0, fmt.Errorf("no copy of %v", p)
		}
		cur, err := v.Cursor(rec)
		return cur, 0, err
	}
}

// queryRead is query through read; with a nil read it is query.
func queryRead(g *Generation, q *xpath.Path, read func(storage.Pointer) (xmltree.Cursor, xmltree.Ref, error)) (Result, error) {
	if read == nil {
		return query(g, q)
	}
	pq, err := g.PreparePath(q, nil)
	if err != nil {
		return Result{}, err
	}
	return g.QueryRead(context.Background(), pq, nil, Limits{}, read)
}

// heapDump clusters ix and flattens the heap to one comparable string. On
// the way it requires what the paper's layout is: one record per entry, in
// key order, each holding the bytes of its entry's subtree.
func heapDump(t *testing.T, ix *Index) string {
	t.Helper()
	c := cluster(t, ix)
	var buf []byte
	next := uint32(0)
	for _, e := range expand(t, ix.bt.Scan) {
		if rec, ok := c.copies[e.ptr]; !ok || rec != next {
			t.Fatalf("entry %d in key order has its copy in record %d (%t)", next, rec, ok)
		}
		pc, pr, err := ix.store.ReadSubtree(e.ptr)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := c.heap.Record(next)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pc.SubtreeBytes(pr), copied) {
			t.Fatalf("entry %d: the copy differs from the primary subtree", next)
		}
		buf = append(buf, copied...)
		next++
	}
	if int(next) != c.heap.NumRecords() || int(next) != ix.Entries() {
		t.Errorf("the heap holds %d records for %d entries", c.heap.NumRecords(), ix.Entries())
	}
	return string(buf)
}

// TestClusterCopiesEachEntryInKeyOrder lays out the clustered copy of a
// collection index and of a depth-limited one through Postings (heapDump
// checks the layout), and requires Postings to stop at the first error
// its callback returns and to return it.
func TestClusterCopiesEachEntryInKeyOrder(t *testing.T) {
	for _, opts := range []Options{{}, {DepthLimit: 2}} {
		_, ix := buildCollection(t, bibDocs, opts)
		if heapDump(t, ix) == "" {
			t.Fatalf("depth %d: empty clustered copy", opts.DepthLimit)
		}
		stop := errors.New("stop")
		calls := 0
		err := ix.Postings(func(storage.Pointer) error {
			if calls++; calls == 2 {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) || calls != 2 {
			t.Errorf("depth %d: Postings returned %v after %d calls, want the callback's error after 2", opts.DepthLimit, err, calls)
		}
	}
}
