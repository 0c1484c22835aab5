package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
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
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(f, xmltree.NewDict())
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
	if got, want := re.Dict().Labels(), dict.Labels(); !slices.Equal(got, want) {
		t.Errorf("the trailers restored labels %v, want %v", got, want)
	}
	// Appending after reopen continues the sequence.
	rec, err := re.AppendTree(xmltree.Elem("third"))
	if err != nil || rec != 2 {
		t.Errorf("append after reopen: rec=%d err=%v", rec, err)
	}
}

// sealedBatch returns the bytes a store over a copy of f appends for one
// sealed batch holding recs.
func sealedBatch(t *testing.T, f *MemFile, dict *xmltree.Dict, recs ...string) []byte {
	t.Helper()
	cp := &MemFile{buf: slices.Clone(f.buf)}
	st, err := OpenStore(cp, dict)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := st.AppendBytes([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	return cp.buf[len(f.buf):]
}

// TestStoreOpenTornRecord reopens a heap whose last batch a crash cut
// short — inside a length prefix, inside a body, before the trailer,
// inside the trailer — and heaps whose bytes past the last good trailer
// may hold a sealed batch: a whole trailer that fails its CRC, a length
// running past the end of a file that ends in a trailer, an item that
// does not decode. OpenStore keeps the batches before the torn bytes,
// leaves the file alone, reports them and refuses to append amid them.
// DropTornTail cuts a crash's tail, and the next batch lands where the
// torn one began: sealed and reopened, every record reads back. Any other
// tail it refuses with ErrSealedTail and leaves in place.
func TestStoreOpenTornRecord(t *testing.T) {
	dict := xmltree.NewDict()
	f := NewMemFile()
	st, err := NewStore(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"first", "second"} {
		if _, err := st.AppendBytes([]byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	end := st.Size()
	whole := sealedBatch(t, f, dict, "third", "fourth")
	badCRC := slices.Clone(whole)
	badCRC[len(badCRC)-1] ^= 1
	badLength := slices.Clone(whole)
	badLength[0] = 0x40
	for _, tc := range []struct {
		tail   []byte
		sealed bool
	}{
		{whole[:1], false},
		{whole[:4], false},
		{whole[:9], false},
		{whole[:len(whole)-5], false},
		{whole[:len(whole)-4], false},
		{whole[:len(whole)-1], false},
		{badCRC, true},
		{badLength, true},
		{[]byte{0x84, 0, 0, 0, 0}, true},
	} {
		tail := tc.tail
		g := &MemFile{buf: append(slices.Clone(f.buf), tail...)}
		re, err := OpenStore(g, dict)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		size, _ := g.Size()
		if re.NumRecords() != 2 || re.Size() != end || re.TornTail() != int64(len(tail)) || size != end+int64(len(tail)) {
			t.Fatalf("tail %q: reopened with %d records, end %d, torn %d, file %d bytes; want 2, %d, %d, %d",
				tail, re.NumRecords(), re.Size(), re.TornTail(), size, end, len(tail), end+int64(len(tail)))
		}
		if _, err := re.AppendBytes([]byte("third")); err == nil {
			t.Fatalf("tail %q: an append amid the torn bytes succeeded", tail)
		}
		if tc.sealed {
			before := slices.Clone(g.buf)
			if err := re.DropTornTail(); !errors.Is(err, ErrSealedTail) {
				t.Fatalf("tail %q: DropTornTail = %v, want ErrSealedTail", tail, err)
			}
			if !bytes.Equal(g.buf, before) || re.TornTail() != int64(len(tail)) {
				t.Fatalf("tail %q: the refused DropTornTail changed the heap", tail)
			}
			continue
		}
		if err := re.DropTornTail(); err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if size, _ := g.Size(); re.TornTail() != 0 || size != end {
			t.Fatalf("tail %q: after DropTornTail torn %d, file %d bytes; want 0, %d", tail, re.TornTail(), size, end)
		}
		if rec, err := re.AppendBytes([]byte("third")); err != nil || rec != 2 || re.offs[rec] != end {
			t.Fatalf("tail %q: the next append is record %d at %d (%v), want record 2 at %d", tail, rec, re.offs[rec], err, end)
		}
		if err := re.Seal(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenStore(&MemFile{buf: slices.Clone(g.buf)}, dict)
		if err != nil || again.NumRecords() != 3 || again.TornTail() != 0 {
			t.Fatalf("tail %q: reopened after the append: %v", tail, err)
		}
		for rec, want := range []string{"first", "second", "third"} {
			if got, err := again.ReadRecord(nil, uint32(rec)); err != nil || string(got) != want {
				t.Errorf("tail %q: record %d = %q, %v; want %q", tail, rec, got, err, want)
			}
		}
	}
	g := &MemFile{buf: append(slices.Clone(f.buf), whole...)}
	if re, err := OpenStore(g, dict); err != nil || re.NumRecords() != 4 || re.TornTail() != 0 {
		t.Fatalf("the whole batch: %v", err)
	}
}

// TestStoreOpenCorruptPrefix reopens a heap whose second batch has a
// length prefix pointing past the end of the file. OpenStore keeps the
// first batch and reports the rest as torn; as the file ends in the
// second batch's trailer, the torn bytes may hold a sealed batch, and
// DropTornTail refuses to cut them.
func TestStoreOpenCorruptPrefix(t *testing.T) {
	f := NewMemFile()
	st, err := NewStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]string{{"first"}, {"second", "third"}} {
		for _, b := range batch {
			if _, err := st.AppendBytes([]byte(b)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]byte(nil), f.buf...)
	second := int64(len(storeMagic)) + 4 + int64(len("first")) + 5
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
	if err := re.DropTornTail(); !errors.Is(err, ErrSealedTail) {
		t.Errorf("DropTornTail = %v, want ErrSealedTail", err)
	}
	if got := f.buf; len(got) != len(before) || !bytes.Equal(got[second+4:], before[second+4:]) {
		t.Error("OpenStore or DropTornTail changed the heap past the corrupt prefix")
	}
}

// TestTrailersRestoreDeletesAndLabels: the tombstones and the labels of
// every sealed batch come back on open, and those of a rolled-back batch
// do not — but for a label the dictionary assigned before the rollback,
// which the next trailer names.
func TestTrailersRestoreDeletesAndLabels(t *testing.T) {
	dict := xmltree.NewDict()
	f := NewMemFile()
	st, err := NewStore(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"a", "b", "c", "d"} {
		if _, err := st.AppendTree(xmltree.Elem(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil { // 4 records
		t.Fatal(err)
	}
	for _, rec := range []uint32{2, 0} {
		if _, err := st.MarkDeleted(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil { // deletes only, still 4 records
		t.Fatal(err)
	}
	mark := st.Mark()
	if _, err := st.AppendTree(xmltree.Elem("gone")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MarkDeleted(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Rollback(mark); err != nil {
		t.Fatal(err)
	}
	st.UnmarkDeleted(1)
	if _, err := st.AppendTree(xmltree.Elem("e")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MarkDeleted(3); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil { // 5 records
		t.Fatal(err)
	}

	re, err := OpenStore(f, xmltree.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if re.NumRecords() != 5 || re.NumDeleted() != 3 || !re.IsDeleted(0) || re.IsDeleted(1) || !re.IsDeleted(2) || !re.IsDeleted(3) {
		t.Fatalf("reopened: %d records, %d deleted", re.NumRecords(), re.NumDeleted())
	}
	if got := re.Dict().Labels(); !slices.Equal(got, []string{"a", "b", "c", "d", "e", "gone"}) {
		t.Errorf("labels %v", got) // "gone" was assigned before the rollback, so a later trailer names it
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
	if err := st.Seal(); err != nil {
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
