package btree

import (
	"errors"
	"fmt"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

// flushedTree builds a multi-page tree and flushes it so every page's
// disk copy is current.
func flushedTree(t *testing.T, f storage.File, keys int) *Tree {
	t.Helper()
	tr, err := Create(f, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func flipFileByte(t *testing.T, f storage.File, off int64) {
	t.Helper()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestScrubDiskClean(t *testing.T) {
	f := storage.NewMemFile()
	tr := flushedTree(t, f, 200)
	pages := int(tr.Size() / 512)
	if pages < 4 {
		t.Fatalf("tree too small for the test: %d pages", pages)
	}
	scanned, err := tr.ScrubDisk(3, nil)
	if err != nil {
		t.Fatalf("scrub of a clean tree: %v", err)
	}
	if scanned != pages {
		t.Errorf("scanned %d of %d pages", scanned, pages)
	}
}

func TestScrubDiskDetectsCorruption(t *testing.T) {
	f := storage.NewMemFile()
	tr := flushedTree(t, f, 200)
	// Damage a non-meta page's payload: the checksum must catch it.
	flipFileByte(t, f, 2*512+90)
	scanned, err := tr.ScrubDisk(3, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub = %d pages, %v; want ErrCorrupt", scanned, err)
	}
	// The resident copy is still sound, so reads keep working — exactly
	// the latent-rot scenario the scrubber exists for.
	if _, ok, err := tr.Get([]byte("key0007")); err != nil || !ok {
		t.Errorf("read after disk rot: %v %v", ok, err)
	}
}

// TestScrubDiskSkipsDirtyPages: a page changed since the last Flush has
// a legitimately stale (even garbage) disk copy until the next one, so
// the scrubber must not read it; after the flush rewrites it, the same
// page verifies again.
func TestScrubDiskSkipsDirtyPages(t *testing.T) {
	f := storage.NewMemFile()
	tr, err := Create(f, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	flipFileByte(t, f, 512+40) // page 1 is the lone root leaf
	if _, err := tr.ScrubDisk(2, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub after corruption = %v, want ErrCorrupt", err)
	}
	// Dirtying the page makes its disk copy out of scope.
	if err := tr.Put([]byte("k3"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ScrubDisk(2, nil); err != nil {
		t.Fatalf("scrub with the damaged page dirty: %v", err)
	}
	// The flush rewrites the page, repairing the disk copy.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	scanned, err := tr.ScrubDisk(2, nil)
	if err != nil {
		t.Fatalf("scrub after flush: %v", err)
	}
	if want := int(tr.Size() / 512); scanned != want {
		t.Errorf("scanned %d of %d pages after flush", scanned, want)
	}
}

func TestScrubDiskPauseAbortsAndPaces(t *testing.T) {
	f := storage.NewMemFile()
	tr := flushedTree(t, f, 200)
	pages := int(tr.Size() / 512)

	var pauses int
	scanned, err := tr.ScrubDisk(1, func() error { pauses++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if scanned != pages || pauses < pages-1 {
		t.Errorf("scanned %d pages with %d pauses; want %d pages, >= %d pauses", scanned, pauses, pages, pages-1)
	}

	sentinel := errors.New("rate limit says stop")
	scanned, err = tr.ScrubDisk(1, func() error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("aborting pause: scrub = %v, want the sentinel", err)
	}
	if scanned != 1 {
		t.Errorf("scanned %d pages before the first pause, want 1", scanned)
	}
}
