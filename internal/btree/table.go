// Package btree implements the B+tree that FIX uses to index feature keys
// (the paper used Berkeley DB in this role). It is a page-oriented tree
// whose whole image is resident in one page table, which the writer and
// the frozen Views of the readers share copy-on-write, over a storage.File
// that only Flush writes; with arbitrary byte-string keys and values, range
// scans over the leaf chain, and I/O accounting for the
// implementation-independent metrics in the experiments (§6.2) and the
// query traces of internal/obs.
package btree

import (
	"fmt"
	"slices"
)

// Stats counts page traffic. The image is resident, so every page access
// is a hit and the file is read once and written by Flush alone.
type Stats struct {
	PageReads  int64 // pages read from the file and verified: each page once, by Open
	PageWrites int64 // pages written to the file: the dirty ones, by Flush
	CacheHits  int64 // page accesses, by the tree and by the views frozen from it
}

// Sub returns the field-wise difference s - o, the page traffic that
// happened between two snapshots. The query trace uses it to attribute
// probe-phase I/O.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		PageReads:  s.PageReads - o.PageReads,
		PageWrites: s.PageWrites - o.PageWrites,
		CacheHits:  s.CacheHits - o.CacheHits,
	}
}

// idSet is a set of page ids that lists and forgets its members without
// visiting the other pages.
type idSet struct {
	in  []bool // by page id
	ids []uint32
}

// add puts id into the set and reports whether it was not in it.
func (s *idSet) add(id uint32) bool {
	for int(id) >= len(s.in) {
		s.in = append(s.in, false)
	}
	if s.in[id] {
		return false
	}
	s.in[id] = true
	s.ids = append(s.ids, id)
	return true
}

func (s *idSet) has(id uint32) bool { return int(id) < len(s.in) && s.in[id] }

func (s *idSet) reset() {
	for _, id := range s.ids {
		s.in[id] = false
	}
	s.ids = s.ids[:0]
}

// openPage opens page id of a page table for reading in place.
func openPage(pages [][]byte, id uint32) (cells, error) {
	if id == 0 || id >= uint32(len(pages)) {
		return cells{}, fmt.Errorf("%w: reference to page %d of %d", ErrCorrupt, id, len(pages))
	}
	return openCells(id, pages[id][pageHeaderSize:])
}

// alloc appends a zeroed page and returns its id.
func (t *Tree) alloc() uint32 {
	id := uint32(len(t.pages))
	t.pages = append(t.pages, make([]byte, t.pageSize))
	t.owned.add(id)
	t.dirty.add(id)
	return id
}

// own returns the payload of page id for writing. A buffer that a View
// shares is never written (its first eight bytes, the checksum header no
// reader looks at, excepted): the first write to a page since the last
// FreezeView goes to a copy that takes its place in the table, the later
// ones edit that copy where it lies.
func (t *Tree) own(id uint32) []byte {
	if t.owned.add(id) {
		t.pages[id] = slices.Clone(t.pages[id])
	}
	t.dirty.add(id)
	return t.pages[id][pageHeaderSize:]
}

// commitSet brings the meta page up to date and returns the ids of the
// pages that differ from the file, ascending, each stamped with its
// checksum: what a journal records and Flush then writes, byte for byte.
func (t *Tree) commitSet() []uint32 {
	t.writeMeta()
	slices.Sort(t.dirty.ids)
	for _, id := range t.dirty.ids {
		stampPage(t.pages[id])
	}
	return t.dirty.ids
}

// DirtyPages calls visit with every page that differs from the file — the
// i-th of n, the meta page always the first — in id order, as Flush will
// write it, without writing anything: a journal built from these images
// replays to exactly the state the following Flush commits. image is the
// table's own buffer, held still by the tree lock for the length of the
// call: visit writes it out or copies it.
func (t *Tree) DirtyPages(visit func(i, n int, id uint32, image []byte) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.commitSet()
	for i, id := range ids {
		if err := visit(i, len(ids), id, t.pages[id]); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes the pages that differ from the file and syncs it. It is the
// only writer of the file, so the file holds, whole, the tree of the last
// Flush that returned nil; one that fails has written some of the pages,
// and the next writes them all again. Whoever needs the file to be one
// consistent tree after a crash records DirtyPages in a journal first.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.commitSet() {
		if _, err := t.f.WriteAt(t.pages[id], int64(id)*int64(t.pageSize)); err != nil {
			return fmt.Errorf("btree: writing page %d: %w", id, err)
		}
		t.stats.PageWrites++
	}
	if err := t.f.Sync(); err != nil {
		return err
	}
	t.dirty.reset()
	return nil
}
