package core

import (
	"fmt"

	"github.com/fix-index/fix/internal/storage"
)

// Clustered is the paper's clustered layout of a finished index (§4.1,
// Figure 4): a copy of every entry's subtree in an in-memory heap, in key
// order, so refinement reads the heap sequentially. Nothing keeps it
// current — an insert or a rebuild of the index leaves it behind — so it
// belongs to a caller that owns the index offline (the experiments).
type Clustered struct {
	ix     *Index
	heap   *storage.Store
	copies map[storage.Pointer]uint32 // primary pointer → record of its copy
}

// Cluster lays out the clustered copy of ix with one key-order walk of
// its postings: each entry's subtree is appended to the heap as its own
// record. Two entries with one primary pointer are an error, because
// refinement finds a copy by that pointer.
func (ix *Index) Cluster() (*Clustered, error) {
	if ix.bt == nil {
		return nil, fmt.Errorf("%w: B-tree unavailable", ErrCorrupt)
	}
	heap, err := storage.NewStore(storage.NewMemFile(), ix.dict)
	if err != nil {
		return nil, err
	}
	c := &Clustered{ix: ix, heap: heap, copies: make(map[storage.Pointer]uint32, ix.Entries())}
	var bad error
	err = ix.bt.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != keySize {
			bad = errBadKey(k)
			return false
		}
		r := openPostings(keyPointer(k), v)
		for r.next() {
			if _, dup := c.copies[r.ptr]; dup {
				bad = fmt.Errorf("core: two entries point at %v", r.ptr)
				return false
			}
			cur, ref, err := ix.store.ReadSubtree(r.ptr)
			if err == nil {
				c.copies[r.ptr], err = heap.AppendBytes(cur.SubtreeBytes(ref))
			}
			if bad = err; err != nil {
				return false
			}
		}
		if !r.ok() {
			bad = errBadValue(k, v)
		}
		return bad == nil
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Heap returns the heap of subtree copies.
func (c *Clustered) Heap() *storage.Store { return c.heap }

// Copy returns the heap record holding the copy of the subtree at the
// primary pointer p.
func (c *Clustered) Copy(p storage.Pointer) (rec uint32, ok bool) {
	rec, ok = c.copies[p]
	return rec, ok
}

// SizeBytes returns the size of the clustered index: the B-tree's pages
// and the heap of copies.
func (c *Clustered) SizeBytes() int64 { return c.ix.SizeBytes() + c.heap.Size() }

// Freeze is Index.Freeze whose refinement reads the copies instead of
// following primary pointers. The caller owns the returned reference and
// must Unpin it.
func (c *Clustered) Freeze() *Generation {
	g := c.ix.Freeze()
	g.clustered, g.copies = c.heap.Freeze(), c.copies
	return g
}
