package storage

import (
	"fmt"
	"sync/atomic"
)

// region is bytes of a heap file that views read where they lie: a
// mapping of the file on unix (heap_unix.go), or a MemFile's buffer. A
// mapping has holders — its file, until the file maps a larger region or
// closes, and every view frozen over it — and the last holder to release
// it unmaps it, so a regrow never pulls a page from under a view. A
// buffer belongs to the garbage collector, which keeps it alive for as
// long as a view refers to it.
type region struct {
	mem []byte
	// closed is the file's: set by its Close, after which a view still
	// holding the region fails every read with os.ErrClosed, as a read of
	// the closed file would. nil for a MemFile, which reads on after Close.
	closed *atomic.Bool
	refs   atomic.Int64
	unmap  func([]byte) error // nil for a buffer
}

// inPlace is a File whose bytes a view can read where they lie.
type inPlace interface {
	// pinRegion returns the file's bytes, at least up to its end as last
	// written or truncated, held for the caller until it releases them;
	// nil when the file has none to give (it did not map, or it is closed).
	pinRegion() *region
}

// pin adds a holder.
func (r *region) pin() *region {
	r.refs.Add(1)
	return r
}

// release drops a holder; the last one unmaps a mapping.
func (r *region) release() {
	if r.refs.Add(-1) == 0 && r.unmap != nil {
		// Munmap fails only on a range that was never mapped, and this
		// one came from Mmap.
		_ = r.unmap(r.mem)
	}
}

// GuardFault is deferred, behind debug.SetPanicOnFault(true), by every
// loop that navigates records a ReadView returned. Those bytes may lie in
// a mapping of the heap file, and a page that something outside the
// process truncated away faults when touched; with panic-on-fault set
// that is a panic whose value has an Addr method, and GuardFault turns it
// into a read error in *err. Any other panic goes on unwinding:
//
//	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
//	defer storage.GuardFault(&err)
func GuardFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(interface{ Addr() uintptr }); !ok {
		panic(r)
	}
	*err = fmt.Errorf("storage: fault reading a mapped record: %v", r)
}
