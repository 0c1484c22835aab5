package core

import (
	"bytes"
	"math"
	"testing"
)

// heapDump clusters ix and flattens the heap to one comparable string. On
// the way it requires what the paper's layout is: one record per entry, in
// key order, each holding the bytes of its entry's subtree.
func heapDump(t *testing.T, ix *Index) string {
	t.Helper()
	c, err := ix.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	next := uint32(0)
	for _, e := range expand(t, ix.bt.Scan) {
		if rec, ok := c.Copy(e.ptr); !ok || rec != next {
			t.Fatalf("entry %d in key order has its copy in record %d (%t)", next, rec, ok)
		}
		pc, pr, err := ix.store.ReadSubtree(e.ptr)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := c.Heap().Record(next)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pc.SubtreeBytes(pr), copied) {
			t.Fatalf("entry %d: the copy differs from the primary subtree", next)
		}
		buf = append(buf, copied...)
		next++
	}
	if int(next) != c.Heap().NumRecords() || int(next) != ix.Entries() {
		t.Errorf("the heap holds %d records for %d entries", c.Heap().NumRecords(), ix.Entries())
	}
	return string(buf)
}

// TestClusterCopiesEachEntryInKeyOrder lays out the clustered copy of a
// collection index and of a depth-limited one (heapDump checks the
// layout), and requires Cluster to refuse an index in which two entries
// point at one subtree. A run holds a pointer once, and inserting a
// document indexed already fails, so such an index is made by planting a
// chunk of another σ that names a pointer the index holds.
func TestClusterCopiesEachEntryInKeyOrder(t *testing.T) {
	for _, opts := range []Options{{}, {DepthLimit: 2}} {
		st, ix := buildCollection(t, bibDocs, opts)
		if heapDump(t, ix) == "" {
			t.Fatalf("depth %d: empty clustered copy", opts.DepthLimit)
		}
		if err := ix.InsertDocuments(uint32(st.NumRecords() - 1)); err == nil {
			t.Errorf("depth %d: a document indexed twice", opts.DepthLimit)
		}
		e := expand(t, ix.bt.Scan)[0]
		twice := entryKey{label: e.label, sigma: math.Inf(1), first: e.ptr}
		if err := ix.bt.Put(twice.encode(), chunkOf(posting{e.ptr, e.sketch})); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Cluster(); err == nil {
			t.Errorf("depth %d: Cluster over a subtree indexed twice succeeded", opts.DepthLimit)
		}
	}
}
