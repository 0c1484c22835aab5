//go:build !unix

package storage

// mapHeap returns the file a store's views read through. Off unix that is
// f itself, read with ReadAt.
func mapHeap(f File) File { return f }

// SetMapReserve sets the least address space a heap mapping reserves on
// unix, where tests lower it to regrow mappings; off unix nothing is
// mapped and it does nothing.
func SetMapReserve(int64) (restore func()) { return func() {} }
