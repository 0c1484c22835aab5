package storage

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/fix-index/fix/internal/xmltree"
)

func TestPointerPacking(t *testing.T) {
	f := func(rec, off uint32) bool {
		p := MakePointer(rec, off)
		return p.Rec() == rec && p.Off() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemFileModel(t *testing.T) {
	// Compare MemFile against a growing byte-slice model under random
	// writes and reads.
	rng := rand.New(rand.NewSource(3))
	mf := NewMemFile()
	var model []byte
	for i := 0; i < 500; i++ {
		off := rng.Int63n(2000)
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		if _, err := mf.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
		end := off + int64(len(data))
		if end > int64(len(model)) {
			model = append(model, make([]byte, end-int64(len(model)))...)
		}
		copy(model[off:], data)
	}
	size, err := mf.Size()
	if err != nil || size != int64(len(model)) {
		t.Fatalf("size = %d, want %d (err=%v)", size, len(model), err)
	}
	got := make([]byte, len(model))
	if _, err := mf.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Error("MemFile content diverged from model")
	}
	// Reads past EOF.
	if n, err := mf.ReadAt(make([]byte, 10), size+5); n != 0 || err != io.EOF {
		t.Errorf("read past EOF: n=%d err=%v", n, err)
	}
	if _, err := mf.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset read should fail")
	}
	if _, err := mf.WriteAt([]byte{1}, -1); err == nil {
		t.Error("negative offset write should fail")
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(NewMemFile(), xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreAppendAndRead(t *testing.T) {
	st := newStore(t)
	docs := []*xmltree.Node{
		xmltree.Elem("a", xmltree.Elem("b")),
		xmltree.Elem("c", xmltree.Text("hello")),
		xmltree.Elem("d"),
	}
	for i, d := range docs {
		rec, err := st.AppendTree(d)
		if err != nil {
			t.Fatal(err)
		}
		if rec != uint32(i) {
			t.Errorf("record %d numbered %d", i, rec)
		}
	}
	if st.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d", st.NumRecords())
	}
	for i, d := range docs {
		cur, err := st.Cursor(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		back, err := cur.Decode(0)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(d) {
			t.Errorf("record %d decoded %v, want %v", i, back, d)
		}
	}
	if _, err := st.Record(99); err == nil {
		t.Error("out-of-range record read should fail")
	}
}

func TestStoreReopen(t *testing.T) {
	dict := xmltree.NewDict()
	f := NewMemFile()
	st, err := NewStore(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.Elem("root", xmltree.Elem("x", xmltree.Text("v")))
	if _, err := st.AppendTree(want); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTree(xmltree.Elem("second")); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumRecords() != 2 {
		t.Fatalf("reopened NumRecords = %d", re.NumRecords())
	}
	cur, err := re.Cursor(0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cur.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(want) {
		t.Errorf("reopened record = %v, want %v", back, want)
	}
	// Appending after reopen continues the sequence.
	rec, err := re.AppendTree(xmltree.Elem("third"))
	if err != nil || rec != 2 {
		t.Errorf("append after reopen: rec=%d err=%v", rec, err)
	}
}

// TestStoreOpenTornRecord reopens a heap whose last append a crash cut
// short — inside the length prefix, right after it, or inside the body.
// OpenStore leaves the file alone, reports the torn bytes and refuses to
// append amid them; once DropTornTail cuts them, the next append lands
// where the torn record began and reads back, as does every record
// before it.
func TestStoreOpenTornRecord(t *testing.T) {
	for _, tail := range [][]byte{
		{0},
		{0, 0, 0, 100},
		append([]byte{0, 0, 0, 100}, "part of the body"...),
	} {
		dict := xmltree.NewDict()
		f := NewMemFile()
		st, err := NewStore(f, dict)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]byte{[]byte("first"), []byte("second")}
		for _, b := range want {
			if _, err := st.AppendBytes(b); err != nil {
				t.Fatal(err)
			}
		}
		end := st.Size()
		if _, err := f.WriteAt(tail, end); err != nil {
			t.Fatal(err)
		}
		re, err := OpenStore(f, dict)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		size, _ := f.Size()
		if re.NumRecords() != 2 || re.Size() != end || re.TornTail() != int64(len(tail)) || size != end+int64(len(tail)) {
			t.Fatalf("tail %q: reopened with %d records, end %d, torn %d, file %d bytes; want 2, %d, %d, %d",
				tail, re.NumRecords(), re.Size(), re.TornTail(), size, end, len(tail), end+int64(len(tail)))
		}
		if _, err := re.AppendBytes([]byte("third")); err == nil {
			t.Fatalf("tail %q: an append amid the torn bytes succeeded", tail)
		}
		if err := re.DropTornTail(); err != nil {
			t.Fatal(err)
		}
		if size, _ := f.Size(); re.TornTail() != 0 || size != end {
			t.Fatalf("tail %q: after DropTornTail torn %d, file %d bytes; want 0, %d", tail, re.TornTail(), size, end)
		}
		if _, err := re.AppendBytes([]byte("third")); err != nil {
			t.Fatal(err)
		}
		want = append(want, []byte("third"))
		re, err = OpenStore(f, dict)
		if err != nil {
			t.Fatal(err)
		}
		if re.NumRecords() != len(want) {
			t.Fatalf("tail %q: %d records after the append, want %d", tail, re.NumRecords(), len(want))
		}
		for rec, b := range want {
			if got, err := re.Record(uint32(rec)); err != nil || !bytes.Equal(got, b) {
				t.Errorf("tail %q: Record(%d) = %q, %v; want %q", tail, rec, got, err, b)
			}
		}
	}
}

// TestStoreOpenCorruptPrefix reopens a heap whose second of three records
// has a length prefix pointing past the end of the file. To OpenStore
// that looks like a torn tail starting at record 1; it reports so and
// leaves every byte in place for the caller to judge.
func TestStoreOpenCorruptPrefix(t *testing.T) {
	f := NewMemFile()
	st, err := NewStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"first", "second", "third"} {
		if _, err := st.AppendBytes([]byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]byte(nil), f.buf...)
	second := int64(len(storeMagic)) + 4 + int64(len("first"))
	if _, err := f.WriteAt([]byte{0x40, 0, 0, 0}, second); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(f, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if re.NumRecords() != 1 || re.Size() != second || re.TornTail() != int64(len(before))-second {
		t.Errorf("reopened with %d records, end %d, torn %d; want 1, %d, %d",
			re.NumRecords(), re.Size(), re.TornTail(), second, int64(len(before))-second)
	}
	if got := f.buf; len(got) != len(before) || !bytes.Equal(got[second+4:], before[second+4:]) {
		t.Error("OpenStore changed the heap past the corrupt prefix")
	}
}

func TestStoreOpenRejectsGarbage(t *testing.T) {
	f := NewMemFile()
	if _, err := f.WriteAt([]byte("NOTASTORE"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(f, xmltree.NewDict()); err == nil {
		t.Error("OpenStore on garbage succeeded")
	}
}

func TestStoreSequentialVsRandomAccounting(t *testing.T) {
	st := newStore(t)
	for i := 0; i < 5; i++ {
		if _, err := st.AppendTree(xmltree.Elem("doc", xmltree.Text("x"))); err != nil {
			t.Fatal(err)
		}
	}
	st.ResetStats()
	st.ClearCache()
	for i := 0; i < 5; i++ {
		if _, err := st.Record(uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.RandomReads != 1 || s.SeqReads != 4 {
		t.Errorf("in-order scan: random=%d seq=%d, want 1/4", s.RandomReads, s.SeqReads)
	}

	st.ResetStats()
	st.ClearCache()
	for _, rec := range []uint32{4, 0, 2} {
		if _, err := st.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	s = st.Stats()
	if s.RandomReads != 3 || s.SeqReads != 0 {
		t.Errorf("out-of-order: random=%d seq=%d, want 3/0", s.RandomReads, s.SeqReads)
	}

	// Cached re-read.
	st.ResetStats()
	if _, err := st.Record(2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Record(2); err != nil {
		t.Fatal(err)
	}
	s = st.Stats()
	if s.CachedReads != 2 {
		// First read hits the cache left by the previous loop.
		t.Errorf("cached reads = %d, want 2", s.CachedReads)
	}
}

func TestReadSubtreeAccounting(t *testing.T) {
	st := newStore(t)
	doc := xmltree.Elem("a", xmltree.Elem("b", xmltree.Elem("c")), xmltree.Elem("d"))
	rec, err := st.AppendTree(doc)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := st.Cursor(rec)
	if err != nil {
		t.Fatal(err)
	}
	it := cur.Children(0)
	bRef, _ := it.Next()
	st.ResetStats()
	cur2, ref, err := st.ReadSubtree(MakePointer(rec, uint32(bRef)))
	if err != nil {
		t.Fatal(err)
	}
	if cur2.Label(ref) != "b" {
		t.Errorf("subtree label = %q, want b", cur2.Label(ref))
	}
	s := st.Stats()
	if s.SubtreeReads != 1 || s.SubtreeBytes <= 0 {
		t.Errorf("subtree accounting = %+v", s)
	}
	if _, _, err := st.ReadSubtree(MakePointer(rec, 1<<20)); err == nil {
		t.Error("out-of-range subtree read should fail")
	}
}

func TestOSFileBackend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "heap")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	dict := xmltree.NewDict()
	st, err := NewStore(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.Elem("persisted", xmltree.Text("yes"))
	if _, err := st.AppendTree(want); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(f2, dict)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	cur, err := re.Cursor(0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cur.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(want) {
		t.Errorf("persisted record = %v, want %v", back, want)
	}
}

func TestCountElements(t *testing.T) {
	st := newStore(t)
	if _, err := st.AppendTree(xmltree.Elem("a", xmltree.Elem("b"), xmltree.Text("t"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTree(xmltree.Elem("c")); err != nil {
		t.Fatal(err)
	}
	n, err := st.CountElements()
	if err != nil || n != 3 {
		t.Errorf("CountElements = %d, %v; want 3", n, err)
	}
}
