package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFaultPlanFailsNthWrite(t *testing.T) {
	pl := &FaultPlan{FailWrite: 3}
	f := pl.Wrap(NewMemFile())
	buf := []byte("payload!")
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(buf, 8); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd write op: got %v, want ErrInjected", err)
	}
	if !pl.Tripped() {
		t.Error("plan did not report tripping")
	}
	// A crashed process persists nothing further: later ops keep failing.
	if _, err := f.WriteAt(buf, 16); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip write: got %v, want ErrInjected", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip sync: got %v, want ErrInjected", err)
	}
	if got := pl.Writes(); got != 3 {
		t.Errorf("Writes() = %d, want 3 (post-trip ops are not counted)", got)
	}
	// Reads keep working so aborting code paths can finish.
	out := make([]byte, len(buf))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read after trip: %v", err)
	}
	if !bytes.Equal(out, buf) {
		t.Errorf("read back %q, want %q", out, buf)
	}
}

func TestFaultPlanOneShot(t *testing.T) {
	pl := &FaultPlan{FailWrite: 2, OneShot: true}
	f := pl.Wrap(NewMemFile())
	if _, err := f.WriteAt([]byte("aa"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("bb"), 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd write: got %v, want ErrInjected", err)
	}
	if _, err := f.WriteAt([]byte("bb"), 2); err != nil {
		t.Fatalf("retry after one-shot fault: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after one-shot fault: %v", err)
	}
}

func TestFaultPlanTornWrite(t *testing.T) {
	pl := &FaultPlan{FailWrite: 1, Torn: true}
	mem := NewMemFile()
	f := pl.Wrap(mem)
	page := bytes.Repeat([]byte{0xAB}, 64)
	if _, err := f.WriteAt(page, 0); !errors.Is(err, ErrInjected) {
		t.Fatal("torn write did not fail")
	}
	sz, err := mem.Size()
	if err != nil {
		t.Fatal(err)
	}
	if sz != 32 {
		t.Fatalf("torn write persisted %d bytes, want the first half (32)", sz)
	}
	got := make([]byte, 32)
	if _, err := mem.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page[:32]) {
		t.Error("persisted prefix differs from the buffer's first half")
	}
}

func TestFaultPlanSharedAcrossFiles(t *testing.T) {
	pl := &FaultPlan{FailWrite: 2}
	a := pl.Wrap(NewMemFile())
	b := pl.Wrap(NewMemFile())
	if _, err := a.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("y"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("counter not shared across files: %v", err)
	}
}

func TestFaultPlanFailsNthRead(t *testing.T) {
	pl := &FaultPlan{FailRead: 2}
	f := pl.Wrap(NewMemFile())
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(out, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd read: got %v, want ErrInjected", err)
	}
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read faults are one-shot by design: %v", err)
	}
}

// TestWriteAtomicFailures fails each write and sync of a WriteAtomic, the
// rename and the directory sync included, once: the target holds the old
// bytes or the new, and no temp file is left beside it.
func TestWriteAtomicFailures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.dict")
	before, after := []byte("old contents"), []byte("the new, longer contents")
	dry := &FaultPlan{}
	if err := WriteAtomic(dry.WrapFS(Disk), path, before); err != nil {
		t.Fatal(err)
	}
	if dry.Writes() != 4 {
		t.Fatalf("WriteAtomic made %d write-ops, want 4: write, sync, rename, directory sync", dry.Writes())
	}
	for n := 1; n <= dry.Writes(); n++ {
		for _, torn := range []bool{false, true} {
			if err := WriteAtomic(Disk, path, before); err != nil {
				t.Fatal(err)
			}
			pl := &FaultPlan{FailWrite: n, Torn: torn, OneShot: true}
			if err := WriteAtomic(pl.WrapFS(Disk), path, after); !errors.Is(err, ErrInjected) {
				t.Fatalf("write-op %d (torn=%t) failing: WriteAtomic = %v, want ErrInjected", n, torn, err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, before) && !bytes.Equal(got, after) {
				t.Errorf("write-op %d (torn=%t) failing: the target holds %q, %v", n, torn, got, err)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
				t.Errorf("write-op %d (torn=%t) failing: the directory holds %v, %v; want the target alone", n, torn, entries, err)
			}
		}
	}
}

// TestTrippedPlanRefusesCreate trips a plan on a Remove: from then on a
// Create through the wrapped FS fails and leaves the file it names as it
// was, because a crashed process truncates nothing. Before the trip a
// Create succeeds and moves no crash point.
func TestTrippedPlanRefusesCreate(t *testing.T) {
	dir := t.TempDir()
	kept, doomed := filepath.Join(dir, "kept"), filepath.Join(dir, "doomed")
	for _, path := range []string{kept, doomed} {
		if err := os.WriteFile(path, []byte("abc"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pl := &FaultPlan{FailWrite: 1}
	fsys := pl.WrapFS(Disk)
	f, err := fsys.Create(filepath.Join(dir, "before"))
	if err != nil {
		t.Fatalf("Create before the trip: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if pl.Writes() != 0 {
		t.Fatalf("a Create counted %d write-ops, want 0", pl.Writes())
	}
	if err := fsys.Remove(doomed); !errors.Is(err, ErrInjected) {
		t.Fatalf("Remove at the crash point = %v, want ErrInjected", err)
	}
	if f, err := fsys.Create(kept); !errors.Is(err, ErrInjected) {
		if f != nil {
			f.Close()
		}
		t.Errorf("Create after the trip = %v, want ErrInjected", err)
	}
	if got, err := os.ReadFile(kept); err != nil || string(got) != "abc" {
		t.Errorf("after a refused Create the file holds %q, %v; want \"abc\"", got, err)
	}
}
