package btree

import (
	"slices"
	"sync/atomic"
)

// View is an immutable snapshot of a Tree: a copy of the tree's page table
// as of the freeze, sharing the page buffers, which the writer never
// changes once a View has them (Tree.own). Get and Scan read those buffers
// in place (the cells walk of node.go: values where they lie, keys rebuilt
// from the pieces the leaf cells hold) and never touch the tree, the file,
// or any lock — a View is safe for unlimited concurrent readers while the
// owning Tree keeps mutating. The memory a new view adds is the table — one
// slice header per page — and, as the writer goes on, one buffer per page
// it changes.
type View struct {
	pages    [][]byte      // immutable after publish (per-id page buffers, checksum header included; entry 0 is the meta page)
	root     uint32        // immutable after publish
	height   uint32        // immutable after publish
	count    uint64        // immutable after publish
	pageSize int           // immutable after publish
	hits     *atomic.Int64 // the owning tree's viewHits
}

// FreezeView hands out the tree's current state as an immutable View. It
// copies no page, reads nothing and writes nothing: from here on the
// writer copies a page before it first changes it. (The parameter was the
// view to share unchanged pages with and the error a page read that could
// fail; bench/fixload/ledger.go still compiles against both, the first is
// ignored, the second always nil, and ROADMAP item 5(a) drops them.)
func (t *Tree) FreezeView(*View) (*View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.owned.reset()
	return &View{
		pages:    slices.Clone(t.pages),
		root:     t.root,
		height:   t.height,
		count:    t.count,
		pageSize: t.pageSize,
		hits:     &t.viewHits,
	}, nil
}

// cells opens page id of the view's image.
func (v *View) cells(id uint32) (cells, error) {
	v.hits.Add(1)
	return openPage(v.pages, id)
}

// Len returns the number of entries at freeze time.
func (v *View) Len() int { return int(v.count) }

// Height returns the tree height at freeze time.
func (v *View) Height() int { return int(v.height) }

// Size returns the byte size of the frozen image (pages × page size).
func (v *View) Size() int64 { return int64(len(v.pages)) * int64(v.pageSize) }

// Stats returns the page accesses of every view of the owning tree so far;
// views read no file. It is lock-free; the query trace differences it
// around the probe phase.
func (v *View) Stats() Stats { return Stats{CacheHits: v.hits.Load()} }

// Get returns the value stored under key in the frozen image. The value
// is a copy: the caller may keep and change it.
func (v *View) Get(key []byte) ([]byte, bool, error) {
	return get(v, v.root, v.height, key)
}

// Scan calls fn for every entry with from <= key < to in key order, over
// the frozen image. A nil to scans to the end; a nil from starts at the
// beginning; fn returning false stops the scan. Unlike Tree.Scan no lock
// is held, so fn may do anything, including querying the live tree.
//
// val is read in place: it aliases a page that later views and other
// readers share. key is rebuilt in a buffer the scan reuses for the next
// entry — a leaf stores a key without the bytes it shares with the one
// before it. Both are valid only during the call — fn copies what it keeps
// — and must not be modified. (Their capacity equals their length, so
// appending to one copies it.) The scan allocates nothing.
func (v *View) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	return scanLeaves(v, v.root, v.height, uint32(len(v.pages)), from, to, fn)
}
