//go:build !unix

package storage

// mapHeap returns the file a store's views read through. Off unix that is
// f itself, read with ReadAt.
func mapHeap(f File) File { return f }
