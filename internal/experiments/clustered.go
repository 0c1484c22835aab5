package experiments

import (
	"fmt"

	"github.com/fix-index/fix/internal/core"
	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
)

// Clustered is the paper's clustered layout of a finished index (§4.1,
// Figure 4): a copy of every entry's subtree in an in-memory heap, in key
// order, so refinement reads the heap sequentially. Nothing keeps it
// current — an insert or a rebuild of the index leaves it behind — so it
// serves only an index the experiments own offline.
type Clustered struct {
	ix     *core.Index
	heap   *storage.Store
	copies map[storage.Pointer]uint32 // primary pointer → record of its copy
}

// Cluster lays out the clustered copy of ix with one key-order walk of
// its postings: each entry's subtree is appended to the heap as its own
// record, so an entry's copy is the record numbered by its key-order
// position. Two entries with one primary pointer are an error, because
// refinement finds a copy by that pointer.
func Cluster(ix *core.Index) (*Clustered, error) {
	heap, err := storage.NewStore(storage.NewMemFile(), ix.Dict())
	if err != nil {
		return nil, err
	}
	c := &Clustered{ix: ix, heap: heap, copies: make(map[storage.Pointer]uint32, ix.Entries())}
	err = ix.Postings(func(p storage.Pointer) error {
		if _, dup := c.copies[p]; dup {
			return fmt.Errorf("experiments: two entries point at %v", p)
		}
		cur, ref, err := ix.Store().ReadSubtree(p)
		if err == nil {
			c.copies[p], err = heap.AppendBytes(cur.SubtreeBytes(ref))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// SizeBytes returns the size of the clustered index: the B-tree's pages
// and the heap of copies.
func (c *Clustered) SizeBytes() int64 { return c.ix.SizeBytes() + c.heap.Size() }

// reader returns a read function for core.Generation.QueryRead over a
// fresh view of the copies, which has read nothing yet, and the view's
// release. A copy's root is its record's offset 0.
func (c *Clustered) reader() (read func(storage.Pointer) (xmltree.Cursor, xmltree.Ref, error), release func()) {
	v := c.heap.Freeze()
	return func(p storage.Pointer) (xmltree.Cursor, xmltree.Ref, error) {
		rec, ok := c.copies[p]
		if !ok {
			return xmltree.Cursor{}, 0, fmt.Errorf("experiments: entry at %v has no clustered copy", p)
		}
		cur, err := v.Cursor(rec)
		return cur, 0, err
	}, v.Release
}
