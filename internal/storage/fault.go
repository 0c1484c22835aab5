package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the error a FaultFile returns at its scheduled fault
// point. Tests assert on it with errors.Is to distinguish injected crash
// points from real I/O failures.
var ErrInjected = errors.New("storage: injected fault")

// FaultPlan deterministically schedules faults across every FaultFile
// created from it with Wrap, and every file and directory operation of an
// FS wrapped with WrapFS. Write operations (WriteAt, Sync and Truncate,
// and an FS's Rename, Remove and SyncDir — the durability-relevant crash
// points) share one counter, so "fail the Nth write" simulates a crash at
// the Nth step of a multi-file commit protocol; reads have their own
// counter. Creating or opening a file is not counted.
//
// Unless OneShot is set, every write operation after the failing one also
// fails: a crashed process persists nothing further, so recovery code
// must cope with the prefix of writes alone. Reads keep working either
// way, letting the aborting code path run to completion.
//
// A Store over a wrapped heap does not map it (see mapHeap): a FaultFile
// has no region to hand a view, so its views copy each record out with
// ReadAt, and their reads, the store's own reads and its writes all count
// against the plan.
type FaultPlan struct {
	FailWrite int  // fail the Nth write op (1-based); 0 = never
	FailRead  int  // fail the Nth read op (1-based); 0 = never
	Torn      bool // the failing WriteAt persists the first half of its buffer
	OneShot   bool // only the Nth op fails; later ops succeed (transient fault)

	mu      sync.Mutex
	writes  int
	reads   int
	tripped bool
}

// Wrap returns a File that applies the plan's schedule around f.
func (pl *FaultPlan) Wrap(f File) File { return &FaultFile{inner: f, plan: pl} }

// WrapFS returns an FS whose files apply the plan's schedule and whose
// Rename, Remove and SyncDir count as write operations.
func (pl *FaultPlan) WrapFS(fsys FS) FS {
	return faultFS{WrapFiles(fsys, func(_ string, f File) File { return pl.Wrap(f) }), pl}
}

type faultFS struct {
	FS
	plan *FaultPlan
}

func (f faultFS) Rename(oldpath, newpath string) error {
	return f.plan.write("rename "+newpath, func() error { return f.FS.Rename(oldpath, newpath) })
}

func (f faultFS) Remove(path string) error {
	return f.plan.write("remove "+path, func() error { return f.FS.Remove(path) })
}

func (f faultFS) SyncDir(dir string) error {
	return f.plan.write("sync of directory "+dir, func() error { return f.FS.SyncDir(dir) })
}

// write runs op as one write operation: it fails with ErrInjected,
// naming it, where the plan says.
func (pl *FaultPlan) write(name string, op func() error) error {
	if _, fail := pl.nextWrite(); fail {
		return fmt.Errorf("%s: %w", name, ErrInjected)
	}
	return op()
}

// Writes returns how many write operations the plan has observed; a dry
// run with no faults scheduled uses it to size a crash-point sweep.
func (pl *FaultPlan) Writes() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.writes
}

// Tripped reports whether the scheduled fault has fired.
func (pl *FaultPlan) Tripped() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.tripped
}

// nextWrite advances the write counter and reports (torn, fail) for this
// operation.
func (pl *FaultPlan) nextWrite() (bool, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.tripped && !pl.OneShot {
		return false, true
	}
	pl.writes++
	if pl.FailWrite > 0 && pl.writes == pl.FailWrite {
		pl.tripped = true
		return pl.Torn, true
	}
	return false, false
}

func (pl *FaultPlan) nextRead() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.reads++
	return pl.FailRead > 0 && pl.reads == pl.FailRead
}

// WrapFiles returns fsys with every file its Create and Open return
// passed through wrap, for tests that watch or alter a database's files.
func WrapFiles(fsys FS, wrap func(path string, f File) File) FS { return fileWrapper{fsys, wrap} }

type fileWrapper struct {
	FS
	wrap func(path string, f File) File
}

func (w fileWrapper) Create(path string) (File, error) {
	f, err := w.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return w.wrap(path, f), nil
}

func (w fileWrapper) Open(path string) (File, error) {
	f, err := w.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return w.wrap(path, f), nil
}

// FaultFile wraps a File and injects the faults its FaultPlan schedules.
// It implements File, so it can stand in for any index or heap file.
type FaultFile struct {
	inner File
	plan  *FaultPlan
}

func (f *FaultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.plan.nextRead() {
		return 0, fmt.Errorf("read of %d bytes at %d: %w", len(p), off, ErrInjected)
	}
	return f.inner.ReadAt(p, off)
}

func (f *FaultFile) WriteAt(p []byte, off int64) (int, error) {
	torn, fail := f.plan.nextWrite()
	if fail {
		if torn && len(p) > 1 {
			// A torn write: half the buffer reaches the disk before the
			// crash, leaving a page whose checksum cannot match.
			n, _ := f.inner.WriteAt(p[:len(p)/2], off)
			return n, fmt.Errorf("torn write of %d bytes at %d: %w", len(p), off, ErrInjected)
		}
		return 0, fmt.Errorf("write of %d bytes at %d: %w", len(p), off, ErrInjected)
	}
	return f.inner.WriteAt(p, off)
}

func (f *FaultFile) Sync() error { return f.plan.write("sync", f.inner.Sync) }

// Truncate counts as a write operation: log resets and rollback
// truncations are durability-relevant crash points just like appends.
func (f *FaultFile) Truncate(size int64) error {
	return f.plan.write(fmt.Sprintf("truncate to %d", size), func() error { return f.inner.Truncate(size) })
}

func (f *FaultFile) Size() (int64, error) { return f.inner.Size() }
func (f *FaultFile) Close() error         { return f.inner.Close() }
