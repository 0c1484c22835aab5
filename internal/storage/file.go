// Package storage implements the primary XML data storage used by FIX: an
// append-only record heap holding binary-encoded document trees, addressed
// by stable pointers (record, offset) that index entries carry as their
// payload. It also provides FS, the one seam through which a database's
// durable files are created, opened, renamed and removed (Disk), with
// WriteAtomic, the one atomic replace; and the File abstraction shared
// with the B-tree pager, with OS-file and in-memory implementations and,
// for the heap on unix, a file whose views read records in place in a
// shared mapping, and I/O accounting that distinguishes sequential from
// random reads so the experiments can report implementation-independent
// costs for clustered versus unclustered indexes (paper §4.1).
package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// File is the minimal random-access file interface needed by the storage
// heap and the B-tree pager. Truncate discards everything past the given
// size; the heap uses it to drop a torn tail on recovery and to roll back
// a failed batch.
type File interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// osFile adapts *os.File to the File interface.
type osFile struct {
	*os.File
}

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create opens (creating or truncating) the named file for read/write.
func Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open opens an existing file for read/write.
func Open(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// MemFile is an in-memory File, used by tests and by short-lived scratch
// stores. The zero value is an empty file ready to use.
type MemFile struct {
	mu  sync.RWMutex
	buf []byte
}

// NewMemFile returns an empty in-memory file.
func NewMemFile() *MemFile { return &MemFile{} }

// pinRegion hands a view the buffer as it is, to read in place: a write
// that outgrows it moves the file to a new buffer and leaves this one to
// the views, and one that does not lands past every record a view holds,
// since rollback truncates only records newer than any view.
func (f *MemFile) pinRegion() *region {
	f.mu.RLock()
	defer f.mu.RUnlock()
	r := &region{mem: f.buf[:len(f.buf):len(f.buf)]}
	r.refs.Store(1)
	return r
}

func (f *MemFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *MemFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(f.buf)) {
		if end <= int64(cap(f.buf)) {
			f.buf = f.buf[:end]
		} else {
			// Amortized doubling so append-heavy writers (the record
			// heap, the B-tree) stay linear.
			newCap := 2 * cap(f.buf)
			if int64(newCap) < end {
				newCap = int(end)
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.buf)
			f.buf = grown
		}
	}
	copy(f.buf[off:], p)
	return len(p), nil
}

func (f *MemFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.buf)), nil
}

// Truncate discards all bytes at or past size. Growing the file (size
// beyond the current length) extends it with zeros, matching os.File.
func (f *MemFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("storage: negative truncate size %d", size)
	}
	if size <= int64(len(f.buf)) {
		// Zero what is dropped: a later write past the new end reuses
		// the capacity, and the gap it leaves must read as zeros.
		clear(f.buf[size:])
		f.buf = f.buf[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, f.buf)
	f.buf = grown
	return nil
}

func (f *MemFile) Sync() error  { return nil }
func (f *MemFile) Close() error { return nil }
