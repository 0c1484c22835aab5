package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/fix-index/fix/internal/storage"
	"github.com/fix-index/fix/internal/xmltree"
	"github.com/fix-index/fix/internal/xpath"
)

func buildPersistent(t *testing.T, dir string, opts Options) (*storage.Store, *Index) {
	t.Helper()
	dict := xmltree.NewDict()
	hf, err := storage.Create(filepath.Join(dir, "data.heap"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.NewStore(hf, dict)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range bibDocs {
		n, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendTree(n); err != nil {
			t.Fatal(err)
		}
	}
	opts.Dir = dir
	ix, err := Build(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, ix
}

func TestSaveOpenRoundTrip(t *testing.T) {
	for _, opts := range []Options{
		{},
		{DepthLimit: 2},
		{Values: true, Beta: 4},
		{PaperPruning: true},
	} {
		dir := t.TempDir()
		st, ix := buildPersistent(t, dir, opts)
		q := xpath.MustParse("//author[email]")
		want, err := query(freeze(t, ix), q)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(st, dir)
		if err != nil {
			t.Fatalf("opts %+v: Open: %v", opts, err)
		}
		got, err := query(freeze(t, re), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("opts %+v: reopened query %+v, want %+v", opts, got, want)
		}
		if re.Entries() != ix.Entries() {
			t.Errorf("opts %+v: entries %d, want %d", opts, re.Entries(), ix.Entries())
		}
		ro := re.Options()
		if ro.DepthLimit != opts.DepthLimit || ro.Values != opts.Values || ro.PaperPruning != opts.PaperPruning {
			t.Errorf("opts round trip: got %+v, want %+v", ro, opts)
		}
	}
}

func TestOpenMissingDir(t *testing.T) {
	dict := xmltree.NewDict()
	st, err := storage.NewStore(storage.NewMemFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Open on missing dir succeeded")
	}
}

func TestOpenCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	st, ix := buildPersistent(t, dir, Options{})
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fix.meta"), []byte("garbage 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st, dir); err == nil {
		t.Error("Open on corrupt meta succeeded")
	}
}

// TestStreamedJournalIsFIXJNL01 holds the journal Save streams page by
// page against the layout journal.go documents, assembled whole the plain
// way: the bytes must be equal — Recover, and journals older versions
// left behind, know no other format — over a commit of a few hundred pages,
// which is several of the stream's buffers.
func TestStreamedJournalIsFIXJNL01(t *testing.T) {
	var docs []string
	for i := 0; i < 18; i++ {
		docs = append(docs, wideDoc(fmt.Sprint("base", i)))
	}
	ix, err := Build(memStoreFromDocs(t, docs), Options{DepthLimit: 1, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	n, err := xmltree.ParseString(wideDoc("zz"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ix.store.AppendTree(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDocument(rec); err != nil {
		t.Fatal(err)
	}
	meta, edges := ix.encodeMeta(), []byte("the edge encoder's bytes")

	var want bytes.Buffer
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			want.Write(binary.BigEndian.AppendUint32(nil, v))
		}
	}
	var pages bytes.Buffer
	npages := 0
	err = ix.bt.DirtyPages(func(i, n int, id uint32, image []byte) error {
		npages = n
		pages.Write(binary.BigEndian.AppendUint32(nil, id))
		pages.Write(image)
		return nil
	})
	if err != nil || npages <= 256 {
		t.Fatalf("fixture: %d dirty pages, %v", npages, err)
	}
	want.WriteString("FIXJNL01")
	u32(256, uint32(npages), uint32(len(meta)), uint32(len(edges)))
	want.Write(pages.Bytes())
	want.Write(meta)
	want.Write(edges)
	u32(crc32.Checksum(want.Bytes(), crc32.MakeTable(crc32.Castagnoli)))

	jf := storage.NewMemFile()
	if err := writeJournal(jf, ix.bt, meta, edges); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, want.Len()+1)
	if n, _ := jf.ReadAt(got, 0); !bytes.Equal(got[:n], want.Bytes()) {
		t.Fatalf("the streamed journal (%d bytes) differs from the layout assembled whole (%d bytes)", n, want.Len())
	}
	if j, ok := decodeJournal(want.Bytes()); !ok || len(j.pages) != npages || !bytes.Equal(j.meta, meta) {
		t.Fatal("decodeJournal rejects the journal")
	}
}
