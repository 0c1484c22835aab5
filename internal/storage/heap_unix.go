//go:build unix

package storage

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sync"
	"syscall"
)

// minReserve is the least address space a heap mapping reserves. The
// mapping runs past the file's end so appends seldom remap; the reserve
// costs address space, not memory — a page becomes resident only when a
// read touches it.
var minReserve int64 = 64 << 20

// mappedFile is the record heap's File on unix, the one a Store writes
// and its views read through: writes, syncs and truncation go to the
// file, and reads copy out of a read-only shared mapping of it, so
// reading a record the page cache holds is a memcpy instead of a pread
// syscall.
//
// A read never touches a byte past size, the file's length as this File
// last wrote or truncated it, so a legitimate read cannot fault on a page
// past the end of the file.
//
// A mapping is a speed-up, never a requirement: where the file cannot be
// mapped (an address-space limit, a filesystem that refuses mmap) reads
// go to the file with ReadAt, exactly as on a build without mappings.
type mappedFile struct {
	osFile
	// mu is held shared by a read for its copy, exclusively by whatever
	// replaces the mapping or moves size: growth, Truncate and Close
	// never pull a page out from under a copy in flight.
	mu sync.RWMutex
	// mem is the mapping, at least size bytes; nil once closed or once a
	// larger mapping could not be made, and reads then go to the file.
	mem  []byte // guarded by mu
	size int64  // guarded by mu
}

// mapHeap returns the file a store's views read through: f with reads
// served from a shared mapping when f is an OS file that maps, under the
// same fault plan when f is wrapped in one, and f itself otherwise.
func mapHeap(f File) File {
	switch f := f.(type) {
	case osFile:
		size, err := f.Size()
		if err != nil {
			return f
		}
		mem, err := mapFile(f.File, size)
		if err != nil {
			return f
		}
		return &mappedFile{osFile: f, mem: mem, size: size}
	case *FaultFile:
		return &FaultFile{inner: mapHeap(f.inner), plan: f.plan}
	}
	return f
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

func (f *mappedFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	switch {
	case f.mem == nil:
		return f.File.ReadAt(p, off) // unmapped, or closed: os.ErrClosed
	case off < 0:
		return 0, fmt.Errorf("storage: negative offset %d", off)
	case off >= f.size:
		return 0, io.EOF
	}
	n, err := copyMapped(p, f.mem[off:f.size])
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// copyMapped copies src, a slice of a mapping, into dst. A page of src
// the file no longer backs — it was truncated by another process — raises
// SIGBUS; here that is a read error instead of a crash.
func copyMapped(dst, src []byte) (n int, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("storage: fault reading mapped file: %v", r)
		}
	}()
	return copy(dst, src), nil
}

// WriteAt writes through the file, then makes what it wrote readable.
func (f *mappedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if n == 0 {
		return n, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(n); end > f.size {
		f.cover(end)
		f.size = end
	}
	return n, err
}

// Truncate cuts (or extends) the file; no read runs while it does, and
// none afterwards reaches past the new end.
func (f *mappedFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.cover(size)
	f.size = size
	return nil
}

// cover remaps the file, if needed, so the mapping spans its first end
// bytes. When the larger mapping cannot be made, the old one goes all the
// same and reads go to the file from then on: what was written stays
// readable either way. The caller holds mu exclusively, so no copy is
// inside the old mapping when it goes.
func (f *mappedFile) cover(end int64) {
	if f.mem == nil || end <= int64(len(f.mem)) {
		return
	}
	mem, err := mapFile(f.File, end)
	if err != nil {
		mem = nil
	}
	// Munmap fails only on a range that was never mapped, and this one
	// came from Mmap.
	_ = syscall.Munmap(f.mem)
	f.mem = mem
}

func (f *mappedFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.mem != nil {
		err = syscall.Munmap(f.mem)
		f.mem = nil
	}
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}
