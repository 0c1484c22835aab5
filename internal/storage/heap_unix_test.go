//go:build unix

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/fix-index/fix/internal/xmltree"
)

// withSmallReserve makes heap mappings reserve one page, so a test grows
// them past their reservation with kilobytes instead of 64 MiB.
func withSmallReserve(t *testing.T) {
	t.Helper()
	old := minReserve
	minReserve = int64(os.Getpagesize())
	t.Cleanup(func() { minReserve = old })
}

// mappedHeap creates a heap file and maps it the way a Store does.
func mappedHeap(t *testing.T, path string) File {
	t.Helper()
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return mapHeap(f)
}

func mappedLen(f File) int {
	m := f.(*mappedFile)
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.mem)
}

// TestMappedFileMatchesMemFile drives a mapped heap file and a MemFile
// with the same random writes, truncations and reads: every read returns
// the same bytes, count and EOF, including reads that straddle or start
// past the end and reads after the mapping was replaced.
func TestMappedFileMatchesMemFile(t *testing.T) {
	withSmallReserve(t)
	f := mappedHeap(t, filepath.Join(t.TempDir(), "heap"))
	defer f.Close()
	model := NewMemFile()
	first := mappedLen(f)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		size, _ := model.Size()
		switch op := rng.Intn(10); {
		case op < 5:
			data := make([]byte, rng.Intn(3000))
			rng.Read(data)
			off := rng.Int63n(size + 100)
			if _, err := f.WriteAt(data, off); err != nil {
				t.Fatal(err)
			}
			if _, err := model.WriteAt(data, off); err != nil {
				t.Fatal(err)
			}
		case op == 5:
			to := rng.Int63n(size + 1)
			if err := f.Truncate(to); err != nil {
				t.Fatal(err)
			}
			if err := model.Truncate(to); err != nil {
				t.Fatal(err)
			}
		default:
			off := rng.Int63n(size + 50)
			n := rng.Intn(500)
			got, want := make([]byte, n), make([]byte, n)
			gn, gerr := f.ReadAt(got, off)
			wn, werr := model.ReadAt(want, off)
			if gn != wn || gerr != werr || !bytes.Equal(got[:gn], want[:wn]) {
				t.Fatalf("op %d: ReadAt(%d bytes at %d of %d) = %d, %v; MemFile %d, %v",
					i, len(got), off, size, gn, gerr, wn, werr)
			}
		}
	}
	if got := mappedLen(f); got <= first {
		t.Errorf("the mapping never grew past its first %d bytes (now %d)", first, got)
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset read should fail")
	}
}

// TestMappedStoreReadersDuringRegrow runs readers over frozen views while
// the writer appends far past the mapping's reservation, so the mapping
// is replaced under them again and again: every read returns its
// record's bytes. Run it under -race.
func TestMappedStoreReadersDuringRegrow(t *testing.T) {
	withSmallReserve(t)
	f, err := Create(filepath.Join(t.TempDir(), "heap"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	record := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 200+i%700) }
	for i := 0; i < 10; i++ {
		if _, err := st.AppendBytes(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	first := mappedLen(st.f)
	views := make(chan *ReadView, 64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				for rec := 0; rec < v.NumRecords(); rec++ {
					got, err := v.Record(uint32(rec))
					if err != nil || !bytes.Equal(got, record(rec)) {
						t.Errorf("view of %d records: Record(%d) = %d bytes, %v", v.NumRecords(), rec, len(got), err)
						return
					}
				}
			}
		}()
	}
	for i := 10; i < 400; i++ {
		if _, err := st.AppendBytes(record(i)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			views <- st.Freeze()
		}
	}
	close(views)
	wg.Wait()
	if got := mappedLen(st.f); got <= first {
		t.Errorf("the appends never outgrew the %d-byte mapping (now %d)", first, got)
	}
}

// TestMappedStoreRollback rolls back a batch of appends that outgrew the
// mapping: every record from before the batch reads back, through the
// store and through a view frozen before it, the discarded bytes are past
// EOF, and appends resume where the batch began.
func TestMappedStoreRollback(t *testing.T) {
	withSmallReserve(t)
	f, err := Create(filepath.Join(t.TempDir(), "heap"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var want [][]byte
	for i := 0; i < 20; i++ {
		want = append(want, []byte(fmt.Sprintf("before-%d", i)))
		if _, err := st.AppendBytes(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	n, end := st.NumRecords(), st.Size()
	v := st.Freeze()
	for i := 0; i < 50; i++ {
		if _, err := st.AppendBytes(bytes.Repeat([]byte{'x'}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.TruncateTo(n, end); err != nil {
		t.Fatal(err)
	}
	st.ClearCache()
	for rec, b := range want {
		if got, err := st.Record(uint32(rec)); err != nil || !bytes.Equal(got, b) {
			t.Errorf("store Record(%d) = %q, %v; want %q", rec, got, err, b)
		}
		if got, err := v.Record(uint32(rec)); err != nil || !bytes.Equal(got, b) {
			t.Errorf("view Record(%d) = %q, %v; want %q", rec, got, err, b)
		}
	}
	if n, err := st.f.ReadAt(make([]byte, 4), end); n != 0 || err != io.EOF {
		t.Errorf("read at the rolled-back end = %d, %v; want 0, EOF", n, err)
	}
	rec, err := st.AppendBytes([]byte("after"))
	if err != nil || rec != uint32(n) {
		t.Fatalf("append after rollback: rec %d, %v; want %d", rec, err, n)
	}
	if got, err := st.Record(rec); err != nil || string(got) != "after" {
		t.Errorf("Record(%d) = %q, %v; want \"after\"", rec, got, err)
	}
}

// TestMappedFileFaults covers the two ways a read can reach memory the
// file no longer backs: the file truncated by another process (SIGBUS on
// the mapped pages) and a read after Close. Both are errors; the process
// lives on.
func TestMappedFileFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap")
	f := mappedHeap(t, path)
	page := os.Getpagesize()
	if _, err := f.WriteAt(bytes.Repeat([]byte{'h'}, 4*page), 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(page)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := f.ReadAt(buf, 10); err != nil {
		t.Errorf("read inside the page the file still backs: %v", err)
	}
	if _, err := f.ReadAt(buf, int64(2*page)); err == nil {
		t.Error("read of a page truncated away succeeded")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, os.ErrClosed) {
		t.Errorf("read after Close = %v, want os.ErrClosed", err)
	}
}

// TestHeapWithoutMapping makes every mapping fail, as an address-space
// limit or a filesystem that refuses mmap would: a store created and
// reopened over such a file reads with ReadAt, and every record reads
// back. A store whose mapping cannot grow past its reservation goes back
// to ReadAt at the append that outgrows it, and loses nothing.
func TestHeapWithoutMapping(t *testing.T) {
	record := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 300+i) }
	check := func(st *Store, n int) {
		t.Helper()
		st.ClearCache()
		v := st.Freeze()
		for rec := 0; rec < n; rec++ {
			if got, err := v.Record(uint32(rec)); err != nil || !bytes.Equal(got, record(rec)) {
				t.Fatalf("Record(%d) = %d bytes, %v", rec, len(got), err)
			}
		}
	}
	old := minReserve
	t.Cleanup(func() { minReserve = old })

	minReserve = math.MaxInt64
	path := filepath.Join(t.TempDir(), "heap")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.f.(osFile); !ok {
		t.Fatalf("NewStore over a file that does not map reads through %T, want osFile", st.f)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.AppendBytes(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	check(st, 20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = Open(path); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenStore(f, xmltree.NewDict()); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.f.(osFile); !ok {
		t.Fatalf("OpenStore over a file that does not map reads through %T, want osFile", st.f)
	}
	check(st, 20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	minReserve = int64(os.Getpagesize())
	if f, err = Open(path); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenStore(f, xmltree.NewDict()); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if mappedLen(st.f) == 0 {
		t.Fatal("the reopened store did not map its file")
	}
	minReserve = math.MaxInt64
	for i := 20; i < 60; i++ {
		if _, err := st.AppendBytes(record(i)); err != nil {
			t.Fatalf("append %d after the mapping could not grow: %v", i, err)
		}
	}
	if n := mappedLen(st.f); n != 0 {
		t.Fatalf("a mapping of %d bytes survived a failed regrow", n)
	}
	check(st, 60)
}
