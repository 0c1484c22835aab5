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
	"runtime/debug"
	"sync"
	"testing"

	"github.com/fix-index/fix/internal/xmltree"
)

// withSmallReserve makes heap mappings reserve one page, so a test grows
// them past their reservation with kilobytes instead of 64 MiB.
func withSmallReserve(t *testing.T) {
	t.Helper()
	t.Cleanup(SetMapReserve(int64(os.Getpagesize())))
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
	if m.cur == nil {
		return 0
	}
	return len(m.cur.mem)
}

// TestMappedFileMatchesMemFile drives a mapped heap file and a MemFile
// with the same random writes and truncations: after each, a region
// pinned from the mapped file holds the bytes the MemFile holds, across
// regrows of the mapping.
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
			off := rng.Int63n(size + 1)
			end := min(off+rng.Int63n(500), size)
			want := make([]byte, end-off)
			if _, err := model.ReadAt(want, off); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			reg := f.(*mappedFile).pinRegion()
			if got := reg.mem[off:end]; !bytes.Equal(got, want) {
				t.Fatalf("op %d: the region's bytes %d–%d of %d differ from the MemFile's", i, off, end, size)
			}
			reg.release()
		}
	}
	if got := mappedLen(f); got <= first {
		t.Errorf("the mapping never grew past its first %d bytes (now %d)", first, got)
	}
}

// TestMappedStoreReadersDuringRegrow runs readers over frozen views while
// the writer appends far past the mapping's reservation, so the mapping
// is replaced under them again and again: every read returns its
// record's bytes, read in place in the region the view was frozen over.
// A view frozen before all of it still reads its records after the
// regrows and the appends, its region stays mapped until exactly its
// release, and Close unmaps the last one. Run it under -race.
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
	record := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 200+i%700) }
	readAll := func(v *ReadView) error {
		for rec := 0; rec < v.NumRecords(); rec++ {
			got, err := v.Record(uint32(rec))
			if err != nil || !bytes.Equal(got, record(rec)) {
				return fmt.Errorf("view of %d records: Record(%d) = %d bytes, %v", v.NumRecords(), rec, len(got), err)
			}
		}
		return nil
	}
	for i := 0; i < 10; i++ {
		if _, err := st.AppendBytes(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	first := mappedLen(st.f)
	mapped := &st.f.(*mappedFile).mapped
	early := st.Freeze()
	if early.reg == nil {
		t.Fatal("a view of a mapped heap copies its records")
	}
	views := make(chan *ReadView, 64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				if err := readAll(v); err != nil {
					t.Error(err)
				}
				v.Release()
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
	if err := readAll(early); err != nil {
		t.Errorf("after the regrows: %v", err)
	}
	if got := mapped.Load(); got != 2 {
		t.Errorf("%d regions mapped with every later view released, want 2: the store's and the early view's", got)
	}
	early.Release()
	if got := mapped.Load(); got != 1 {
		t.Errorf("%d regions mapped after the early view's release, want the store's 1", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mapped.Load(); got != 0 {
		t.Errorf("%d regions mapped after Close, want 0", got)
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

// TestMappedFileFaults covers the two ways a view's read can reach memory
// the file no longer backs: the file truncated by another process, whose
// mapped pages past the cut raise SIGBUS when a record there is navigated
// — a read error under GuardFault — and a read after Close, which fails
// with os.ErrClosed as a read of the closed file does. The process lives
// on.
func TestMappedFileFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap")
	hf, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(hf, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	page := os.Getpagesize()
	record := bytes.Repeat([]byte{'r'}, page/4)
	for i := 0; i < 16; i++ {
		if _, err := st.AppendBytes(record); err != nil {
			t.Fatal(err)
		}
	}
	v := st.Freeze()
	defer v.Release()
	if err := os.Truncate(path, int64(page)); err != nil {
		t.Fatal(err)
	}
	navigate := func(rec uint32) (err error) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer GuardFault(&err)
		got, err := v.Record(rec)
		if err == nil && !bytes.Equal(got, record) {
			err = fmt.Errorf("Record(%d) read other bytes", rec)
		}
		return err
	}
	if err := navigate(0); err != nil {
		t.Errorf("navigating a record in the page the file still backs: %v", err)
	}
	if err := navigate(15); err == nil {
		t.Error("navigating a record truncated away succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Record(0); !errors.Is(err, os.ErrClosed) {
		t.Errorf("view read after Close = %v, want os.ErrClosed", err)
	}
	if _, err := st.f.ReadAt(make([]byte, 4), 8); !errors.Is(err, os.ErrClosed) {
		t.Errorf("file read after Close = %v, want os.ErrClosed", err)
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
	t.Cleanup(SetMapReserve(math.MaxInt64))
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

	SetMapReserve(int64(os.Getpagesize()))
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
	SetMapReserve(math.MaxInt64)
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
