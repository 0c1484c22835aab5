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
// created from it with Wrap. Write operations (WriteAt and Sync — the
// durability-relevant crash points) share one counter across all wrapped
// files, so "fail the Nth write" simulates a crash at the Nth step of a
// multi-file commit protocol; reads have their own counter.
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

func (f *FaultFile) Sync() error {
	if _, fail := f.plan.nextWrite(); fail {
		return fmt.Errorf("sync: %w", ErrInjected)
	}
	return f.inner.Sync()
}

// Truncate counts as a write operation: log resets and rollback
// truncations are durability-relevant crash points just like appends.
func (f *FaultFile) Truncate(size int64) error {
	if _, fail := f.plan.nextWrite(); fail {
		return fmt.Errorf("truncate to %d: %w", size, ErrInjected)
	}
	return f.inner.Truncate(size)
}

func (f *FaultFile) Size() (int64, error) { return f.inner.Size() }
func (f *FaultFile) Close() error         { return f.inner.Close() }
