//go:build unix

package storage

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// minReserve is the least address space a heap mapping reserves. The
// mapping runs past the file's end so appends seldom remap; the reserve
// costs address space, not memory — a page becomes resident only when a
// read touches it.
var minReserve int64 = 64 << 20

// SetMapReserve sets the least address space a heap mapping reserves and
// returns the function that restores the previous value. Tests lower it
// to one page so a few kilobytes of appends regrow the mapping; they call
// it while no heap is being written. Off unix it does nothing.
func SetMapReserve(n int64) (restore func()) {
	old := minReserve
	minReserve = n
	return func() { minReserve = old }
}

// mappedFile is the record heap's File on unix, the one a Store writes
// and its views read through: writes, syncs and truncation go to the
// file, and views read the records in place, in a read-only shared
// mapping of it (pinRegion), so reading a record the page cache holds
// costs neither a syscall nor a copy.
//
// The file holds one region, its current mapping, spanning at least what
// was written; a write past it maps a larger region and releases the old
// one, which stays mapped for as long as a view frozen over it holds it.
// Every record a view can read lies below the file's end when the view
// was frozen, so a legitimate read cannot fault on a page past the end of
// the file. Everything else — the store's own reads, and the views once
// there is no region — reads the file with ReadAt.
//
// A mapping is a speed-up, never a requirement: where the file cannot be
// mapped (an address-space limit, a filesystem that refuses mmap) views
// read the file with ReadAt, exactly as on a build without mappings.
type mappedFile struct {
	osFile
	// mu is held shared by pinRegion, exclusively by whatever replaces
	// the region: growth and Close.
	mu sync.RWMutex
	// cur is the current region; nil once closed or once a larger mapping
	// could not be made, and views then read the file.
	cur    *region // guarded by mu
	closed atomic.Bool
	// mapped counts the file's regions not yet unmapped: the current one
	// and those views still hold. Tests read it.
	mapped atomic.Int64
}

// mapHeap returns the file a store's views read through: f with a shared
// mapping to read in place when f is an OS file that maps, and f itself
// otherwise — a FaultFile included, whose views must copy every record
// with ReadAt so that its plan counts each read.
func mapHeap(f File) File {
	of, ok := f.(osFile)
	if !ok {
		return f
	}
	size, err := of.Size()
	if err != nil {
		return f
	}
	mem, err := mapFile(of.File, size)
	if err != nil {
		return f
	}
	m := &mappedFile{osFile: of}
	m.cur = m.newRegion(mem)
	return m
}

// mapFile maps f read-only and shared, reserving max(2 × size,
// minReserve) bytes of address space.
func mapFile(f *os.File, size int64) ([]byte, error) {
	n := max(2*size, minReserve)
	if n > math.MaxInt {
		return nil, fmt.Errorf("storage: mapping %s: %d bytes exceed the address space", f.Name(), n)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("storage: mapping %s: %w", f.Name(), err)
	}
	return mem, nil
}

// newRegion returns a region over mem, a new mapping of the file, held
// once — by the file.
func (f *mappedFile) newRegion(mem []byte) *region {
	f.mapped.Add(1)
	r := &region{mem: mem, closed: &f.closed, unmap: f.unmap}
	r.refs.Store(1)
	return r
}

// unmap unmaps a region of the file's, at its last release.
func (f *mappedFile) unmap(mem []byte) error {
	f.mapped.Add(-1)
	return syscall.Munmap(mem)
}

// pinRegion returns the current region, held for the caller.
func (f *mappedFile) pinRegion() *region {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.cur == nil {
		return nil
	}
	return f.cur.pin()
}

// WriteAt writes through the file, then makes what it wrote readable in
// place.
func (f *mappedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if n > 0 {
		f.cover(off + int64(n))
	}
	return n, err
}

// Truncate cuts (or extends) the file. A view frozen before holds only
// records below the cut (see Store.TruncateTo).
func (f *mappedFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.cover(size)
	return nil
}

// cover maps a larger region, if needed, so the current one spans the
// file's first end bytes, and releases the old one to the views that
// still hold it. When the larger mapping cannot be made, views frozen
// from then on read the file: what was written stays readable either
// way.
func (f *mappedFile) cover(end int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cur == nil || end <= int64(len(f.cur.mem)) {
		return
	}
	old := f.cur
	f.cur = nil
	if mem, err := mapFile(f.File, end); err == nil {
		f.cur = f.newRegion(mem)
	}
	old.release()
}

// Close closes the file and releases its region; a view still holding
// the region fails its reads with os.ErrClosed from now on, and the
// region goes with the last such view.
func (f *mappedFile) Close() error {
	f.closed.Store(true)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cur != nil {
		f.cur.release()
		f.cur = nil
	}
	return f.File.Close()
}
