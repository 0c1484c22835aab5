package btree

import (
	"fmt"
	"sync/atomic"
)

// viewStats counts the activity of frozen views: pages materialized from
// the file at freeze time (physical reads) and node accesses served from
// a view's in-memory image (cache hits — a view is a fully resident
// cache). The fields are atomic because views are read without any lock;
// one instance is shared by a Tree and every View frozen from it, so the
// Tree's merged Stats stay cumulative across generations.
type viewStats struct {
	pageReads atomic.Int64
	cacheHits atomic.Int64
}

// load returns the counters as a Stats snapshot.
func (vs *viewStats) load() Stats {
	return Stats{PageReads: vs.pageReads.Load(), CacheHits: vs.cacheHits.Load()}
}

// View is an immutable snapshot of a Tree. Every allocated page is
// materialized in memory at freeze time, so Get and Scan read those
// buffers in place (the cells walk of node.go: values where they lie, keys
// rebuilt from the pieces the leaf cells hold) and never touch the pager,
// the file, or any lock —
// a View is safe for unlimited concurrent readers while the owning Tree
// keeps mutating. Consecutive views share the buffers of pages that did
// not change between freezes, so the incremental memory cost of a new
// view is proportional to the pages dirtied since the last one.
type View struct {
	owner    *Tree
	pages    [][]byte // immutable after publish (per-id page payloads; entry 0, the meta page, is nil)
	root     uint32   // immutable after publish
	height   uint32   // immutable after publish
	count    uint64   // immutable after publish
	pageSize int      // immutable after publish
	stats    *viewStats
}

// FreezeView materializes the tree's current state as an immutable View.
// Pages unchanged since prev (a View previously frozen from this same
// tree, or nil) share prev's buffers; changed pages are copied from the
// page cache, or read and verified from the file when they were evicted
// (eviction writes dirty pages back, so the file holds the latest content
// of every uncached page). The freeze never writes: the tree's dirty
// state and the shadow-commit protocol are unaffected.
func (t *Tree) FreezeView(prev *View) (*View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev != nil && prev.owner != t {
		prev = nil
	}
	npages := t.p.npages
	pages := make([][]byte, npages)
	if prev != nil {
		copy(pages, prev.pages)
	}
	for id := uint32(1); id < npages; id++ {
		if pages[id] != nil && !t.p.changed[id] {
			continue
		}
		if pg, ok := t.p.cache[id]; ok {
			pages[id] = append([]byte(nil), pg.payload()...)
			continue
		}
		buf := make([]byte, t.p.pageSize)
		if _, err := t.p.f.ReadAt(buf, int64(id)*int64(t.p.pageSize)); err != nil {
			return nil, fmt.Errorf("btree: freezing page %d: %w", id, err)
		}
		if err := verifyPage(id, buf); err != nil {
			return nil, err
		}
		t.vs.pageReads.Add(1)
		pages[id] = buf[pageHeaderSize:]
	}
	clear(t.p.changed)
	return &View{
		owner:    t,
		pages:    pages,
		root:     t.root,
		height:   t.height,
		count:    t.count,
		pageSize: t.p.pageSize,
		stats:    &t.vs,
	}, nil
}

// cells opens page id of the view's materialized image.
func (v *View) cells(id uint32) (cells, error) {
	if id == 0 || id >= uint32(len(v.pages)) || v.pages[id] == nil {
		return cells{}, fmt.Errorf("%w: view references page %d of %d", ErrCorrupt, id, len(v.pages))
	}
	v.stats.cacheHits.Add(1)
	return openCells(id, v.pages[id])
}

// Len returns the number of entries at freeze time.
func (v *View) Len() int { return int(v.count) }

// Height returns the tree height at freeze time.
func (v *View) Height() int { return int(v.height) }

// Size returns the byte size of the frozen image (pages × page size).
func (v *View) Size() int64 { return int64(len(v.pages)) * int64(v.pageSize) }

// Stats returns the cumulative view-side counters of the owning tree:
// freeze-time physical reads and in-memory node accesses. It is
// lock-free; the query trace differences it around the probe phase.
func (v *View) Stats() Stats { return v.stats.load() }

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
