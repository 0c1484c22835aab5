package btree

import (
	"errors"
	"fmt"
	"testing"

	"github.com/fix-index/fix/internal/storage"
)

func fillTree(t *testing.T, tr *Tree, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		if err := tr.Put(k, []byte(fmt.Sprintf("val%05d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func TestCorruptPageDetected(t *testing.T) {
	mem := storage.NewMemFile()
	tr, err := Create(mem, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, tr, 200)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte on every page except the meta page.
	sz, err := mem.Size()
	if err != nil {
		t.Fatal(err)
	}
	one := []byte{0xFF}
	for off := int64(512) + 100; off < sz; off += 512 {
		if _, err := mem.WriteAt(one, off); err != nil {
			t.Fatal(err)
		}
	}

	// Open verifies every page it reads, and it reads them all.
	if _, err := Open(mem); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with an intact meta page over corrupt pages: got %v, want ErrCorrupt", err)
	}
}

func TestCorruptMetaPageRejectedAtOpen(t *testing.T) {
	mem := storage.NewMemFile()
	tr, err := Create(mem, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, tr, 10)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Damage the meta page past the magic, so only the checksum can tell.
	if _, err := mem.WriteAt([]byte{0xFF}, pageHeaderSize+20); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(mem); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt meta page: got %v, want ErrCorrupt", err)
	}
}

func TestTornPageDetected(t *testing.T) {
	mem := storage.NewMemFile()
	tr, err := Create(mem, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, tr, 200)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: the first half of page 1 is from a different
	// (zeroed) version than the second half.
	if _, err := mem.WriteAt(make([]byte, 256), 512); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(mem); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a torn page: got %v, want ErrCorrupt", err)
	}
}

// TestFlushWriteFailureSurfaces: Flush is the only writer of the file, so
// a write that fails fails there, in front of the caller — and it stops at
// the first: the pages behind it are not written over a hole.
func TestFlushWriteFailureSurfaces(t *testing.T) {
	pl := &storage.FaultPlan{FailWrite: 3}
	mem := storage.NewMemFile()
	tr, err := Create(pl.Wrap(mem), 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, tr, 500)
	if pl.Tripped() {
		t.Fatal("a write reached the file before the first Flush")
	}
	if err := tr.Flush(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Flush over a failing file: got %v, want the write's error", err)
	}
	if size, _ := mem.Size(); size != 2*512 {
		t.Errorf("the file holds %d bytes after the third write failed, want two pages", size)
	}
	if err := tr.Flush(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("second Flush over a file that still fails: got %v", err)
	}
}

// TestTransientFlushFailureRecovers checks the other half of the
// contract: after a one-off write failure every page is still dirty, so a
// later Flush writes them all and the file is the whole tree.
func TestTransientFlushFailureRecovers(t *testing.T) {
	pl := &storage.FaultPlan{FailWrite: 3, OneShot: true}
	mem := storage.NewMemFile()
	tr, err := Create(pl.Wrap(mem), 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	fillTree(t, tr, n)
	if err := tr.Flush(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Flush with the fault armed: got %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush retry after transient fault: %v", err)
	}
	re, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		v, ok, err := re.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("val%05d", i) {
			t.Fatalf("Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}
	if err := re.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCleanTree(t *testing.T) {
	tr := newTree(t, 512)
	fillTree(t, tr, 300)
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}
